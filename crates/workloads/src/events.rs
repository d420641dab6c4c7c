//! Seeded, replayable event-stream generation for the online serving
//! layer.
//!
//! Campaign traffic is modelled the way the advertising literature frames
//! it (arriving campaigns, replenished budgets, finite flights): a
//! Poisson process drives virtual time (exponential inter-event gaps),
//! arrivals draw **heavy-tailed budgets** (truncated Pareto — most
//! campaigns are small, a few are whales), and live campaigns are topped
//! up, queried, and eventually depart. Streams are pure functions of the
//! spec + seed, so a log replayed anywhere reproduces the same
//! allocations (the online engine's `replay ≡ batch` anchor).
//!
//! Logs serialize to JSON-lines (one event per line) via
//! [`write_log`] / [`read_log`] — see `examples/event_logs/` for a
//! committed sample.

use crate::datasets::DatasetKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::{Reader, Value};
use std::path::Path;
use tirm_online::{AdId, OnlineEvent};
use tirm_topics::TopicDist;

/// One timestamped event of a generated stream. `at` is virtual seconds
/// since stream start — metadata for pacing analyses; the replay driver
/// processes events as fast as it can.
#[derive(Clone, Debug, PartialEq)]
pub struct LogEvent {
    /// Virtual arrival time (seconds, strictly non-decreasing).
    pub at: f64,
    /// The event.
    pub event: OnlineEvent,
}

/// Declarative shape of an event stream. All budget numbers are *paper
/// scale*; [`EventStreamSpec::generate`] applies the dataset's size ratio
/// (exactly like the batch campaign generators do).
#[derive(Clone, Debug)]
pub struct EventStreamSpec {
    /// Events to generate.
    pub events: usize,
    /// Arrivals stop while this many campaigns are live (steady state).
    pub max_live: usize,
    /// Latent topic count `K` of the host's probability model.
    pub topics_k: usize,
    /// Truncated-Pareto budget range `[min, max]` at paper scale.
    pub budget_range: (f64, f64),
    /// Pareto tail exponent α (smaller = heavier tail; 1.2 is whale-y).
    pub pareto_alpha: f64,
    /// Uniform CPE range.
    pub cpe_range: (f64, f64),
    /// Uniform per-ad CTP range.
    pub ctp_range: (f32, f32),
    /// Mean inter-event gap of the Poisson clock (virtual seconds).
    pub mean_gap_s: f64,
    /// Relative weight of top-ups (arrivals have weight 1).
    pub topup_weight: f64,
    /// Relative weight of departures.
    pub departure_weight: f64,
    /// Relative weight of regret queries.
    pub query_weight: f64,
    /// Probability that an arrival *resumes* a departed campaign (same
    /// id and topic distribution, fresh budget) instead of opening a new
    /// one — the pattern that lets the engine reclaim a pooled RR-index
    /// shard without sampling.
    pub resume_prob: f64,
    /// Stream seed.
    pub seed: u64,
}

impl EventStreamSpec {
    /// Scenario-tiered preset for a dataset: quality networks get the
    /// Table-2 budget/CPE ranges and realistic 1–3% CTPs; scalability
    /// networks get the §6.2 full-competition setup (CPE = CTP = 1).
    pub fn for_dataset(kind: DatasetKind, events: usize, seed: u64) -> EventStreamSpec {
        let (budget_range, cpe_range, ctp_range) = match kind {
            DatasetKind::Flixster => ((200.0, 1200.0), (5.0, 6.0), (0.01, 0.03)),
            DatasetKind::Epinions => ((100.0, 700.0), (2.5, 6.0), (0.01, 0.03)),
            DatasetKind::Dblp => ((2_500.0, 10_000.0), (1.0, 1.0), (1.0, 1.0)),
            DatasetKind::LiveJournal => ((40_000.0, 160_000.0), (1.0, 1.0), (1.0, 1.0)),
        };
        EventStreamSpec {
            events,
            max_live: 8,
            topics_k: if kind.is_quality() { 10 } else { 1 },
            budget_range,
            pareto_alpha: 1.2,
            cpe_range,
            ctp_range,
            mean_gap_s: 30.0,
            topup_weight: 0.5,
            departure_weight: 0.35,
            query_weight: 0.25,
            resume_prob: 0.4,
            seed,
        }
    }

    /// Generates the stream deterministically. `budget_scale` maps
    /// paper-scale budgets onto the generated graph (the dataset's
    /// `size_ratio`, possibly boosted — same convention as the batch
    /// campaign generators).
    pub fn generate(&self, budget_scale: f64) -> Vec<LogEvent> {
        assert!(self.events > 0 && self.max_live > 0 && self.topics_k > 0);
        assert!(self.budget_range.0 > 0.0 && self.budget_range.1 >= self.budget_range.0);
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x0e5e_17f1);
        let mut log = Vec::with_capacity(self.events);
        let mut live: Vec<AdId> = Vec::new();
        // Departed campaigns eligible for resumption: (id, topic dist).
        let mut departed: Vec<(AdId, TopicDist)> = Vec::new();
        let mut next_id: AdId = 1;
        let mut clock = 0.0f64;
        for _ in 0..self.events {
            // Poisson clock: exponential gaps by inverse transform.
            let u: f64 = rng.gen::<f64>().max(1e-12);
            clock += -u.ln() * self.mean_gap_s;

            let arrival_w = if live.len() < self.max_live { 1.0 } else { 0.0 };
            let (topup_w, depart_w) = if live.is_empty() {
                (0.0, 0.0)
            } else {
                (self.topup_weight, self.departure_weight)
            };
            let total = arrival_w + topup_w + depart_w + self.query_weight;
            let roll = rng.gen::<f64>() * total;
            let event = if roll < arrival_w {
                let resume = !departed.is_empty() && rng.gen::<f64>() < self.resume_prob;
                let (id, topics) = if resume {
                    let i = rng.gen_range(0..departed.len() as u32) as usize;
                    departed.remove(i)
                } else {
                    let id = next_id;
                    next_id += 1;
                    let topic = rng.gen_range(0..self.topics_k as u32) as usize;
                    let topics = if self.topics_k == 1 {
                        TopicDist::single(1, 0)
                    } else {
                        TopicDist::concentrated(self.topics_k, topic, 0.91)
                    };
                    (id, topics)
                };
                live.push(id);
                let budget = self.draw_budget(&mut rng) * budget_scale;
                let cpe = draw_range(&mut rng, self.cpe_range);
                let ctp = draw_range_f32(&mut rng, self.ctp_range);
                OnlineEvent::AdArrival {
                    id,
                    budget,
                    cpe,
                    topics,
                    ctp,
                }
            } else if roll < arrival_w + topup_w {
                let id = live[rng.gen_range(0..live.len() as u32) as usize];
                let amount = 0.3 * self.draw_budget(&mut rng) * budget_scale;
                OnlineEvent::BudgetTopUp { id, amount }
            } else if roll < arrival_w + topup_w + depart_w {
                let i = rng.gen_range(0..live.len() as u32) as usize;
                let id = live.remove(i);
                // Topic recovery for resumption needs the arrival's
                // distribution; scan the log (streams are small).
                let topics = log
                    .iter()
                    .rev()
                    .find_map(|e: &LogEvent| match &e.event {
                        OnlineEvent::AdArrival {
                            id: aid, topics, ..
                        } if *aid == id => Some(topics.clone()),
                        _ => None,
                    })
                    .expect("departing ad must have arrived");
                departed.push((id, topics));
                OnlineEvent::AdDeparture { id }
            } else {
                OnlineEvent::RegretQuery
            };
            log.push(LogEvent { at: clock, event });
        }
        log
    }

    /// Truncated Pareto draw: `lo / u^{1/α}`, clamped to `hi`.
    fn draw_budget(&self, rng: &mut SmallRng) -> f64 {
        let (lo, hi) = self.budget_range;
        let u: f64 = rng.gen::<f64>().max(1e-12);
        (lo / u.powf(1.0 / self.pareto_alpha)).min(hi)
    }
}

fn draw_range(rng: &mut SmallRng, (lo, hi): (f64, f64)) -> f64 {
    if (hi - lo).abs() < f64::EPSILON {
        lo
    } else {
        rng.gen_range(lo..=hi)
    }
}

fn draw_range_f32(rng: &mut SmallRng, (lo, hi): (f32, f32)) -> f32 {
    if (hi - lo).abs() < f32::EPSILON {
        lo
    } else {
        rng.gen_range(lo..=hi)
    }
}

/// The ad population live after the whole log has been applied —
/// arrival order, budgets including top-ups. This is the batch problem
/// the online result must be bit-identical to, and the instance the
/// suite's online cells MC-evaluate the final allocation on.
#[derive(Clone, Debug, PartialEq)]
pub struct FinalAd {
    /// Stable advertiser id.
    pub id: AdId,
    /// Budget after every top-up.
    pub budget: f64,
    /// Cost per engagement.
    pub cpe: f64,
    /// Topic distribution.
    pub topics: TopicDist,
    /// Per-ad uniform CTP.
    pub ctp: f32,
}

/// Folds a log into its final live population.
pub fn final_population(log: &[LogEvent]) -> Vec<FinalAd> {
    let mut ads: Vec<FinalAd> = Vec::new();
    for e in log {
        match &e.event {
            OnlineEvent::AdArrival {
                id,
                budget,
                cpe,
                topics,
                ctp,
            } => ads.push(FinalAd {
                id: *id,
                budget: *budget,
                cpe: *cpe,
                topics: topics.clone(),
                ctp: *ctp,
            }),
            OnlineEvent::BudgetTopUp { id, amount } => {
                if let Some(ad) = ads.iter_mut().find(|a| a.id == *id) {
                    ad.budget += *amount;
                }
            }
            OnlineEvent::AdDeparture { id } => ads.retain(|a| a.id != *id),
            OnlineEvent::Reallocate | OnlineEvent::RegretQuery => {}
        }
    }
    ads
}

/// Multiplies every budget-bearing amount (arrival budgets, top-ups) by
/// `factor` — how the `online_replay` bin maps a paper-scale log onto a
/// scaled-down graph.
pub fn scale_budgets(log: &mut [LogEvent], factor: f64) {
    assert!(factor.is_finite() && factor > 0.0);
    for e in log {
        match &mut e.event {
            OnlineEvent::AdArrival { budget, .. } => *budget *= factor,
            OnlineEvent::BudgetTopUp { amount, .. } => *amount *= factor,
            _ => {}
        }
    }
}

/// The comma-separated JSON fields of one event (`"type":…` plus the
/// payload, no braces) — the shared vocabulary of the JSONL log format
/// and the `tirm_server` wire protocol. Floats print in shortest
/// round-trip notation, so decoding is bit-exact.
pub fn event_json_fields(event: &OnlineEvent) -> String {
    match event {
        OnlineEvent::AdArrival {
            id,
            budget,
            cpe,
            topics,
            ctp,
        } => {
            let k = topics.k();
            let main = topics.dominant_topic();
            let mass = topics.weight(main);
            // Compact single/concentrated form only when it
            // reconstructs the distribution bit-for-bit; otherwise
            // serialize the full weight vector — the format's
            // bit-exact replay contract covers arbitrary dists.
            let compact = if k == 1 || mass >= 1.0 {
                TopicDist::single(k, main)
            } else {
                TopicDist::concentrated(k, main, mass)
            };
            let topic_repr = if compact == *topics {
                format!("\"k\":{k},\"topic\":{main},\"mass\":{mass}")
            } else {
                let weights: Vec<String> = topics.weights().iter().map(|w| w.to_string()).collect();
                format!("\"weights\":[{}]", weights.join(","))
            };
            format!(
                "\"type\":\"arrival\",\"id\":{id},\"budget\":{budget},\"cpe\":{cpe},\
                 {topic_repr},\"ctp\":{ctp}"
            )
        }
        OnlineEvent::BudgetTopUp { id, amount } => {
            format!("\"type\":\"topup\",\"id\":{id},\"amount\":{amount}")
        }
        OnlineEvent::AdDeparture { id } => {
            format!("\"type\":\"departure\",\"id\":{id}")
        }
        OnlineEvent::Reallocate => "\"type\":\"reallocate\"".to_string(),
        OnlineEvent::RegretQuery => "\"type\":\"regret_query\"".to_string(),
    }
}

/// Writes a log as JSON-lines (one event object per line; floats in
/// shortest round-trip notation, so replay is bit-exact).
pub fn log_to_jsonl(log: &[LogEvent]) -> String {
    let mut out = String::new();
    for e in log {
        out.push_str(&format!(
            "{{\"at\":{},{}}}\n",
            e.at,
            event_json_fields(&e.event)
        ));
    }
    out
}

/// Parse failure when reading an event log.
#[derive(Debug)]
pub enum LogError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A line is not valid JSON or misses required fields.
    Malformed { line: usize, why: String },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "io error: {e}"),
            LogError::Malformed { line, why } => write!(f, "line {line}: {why}"),
        }
    }
}

impl std::error::Error for LogError {}

/// Most topics an arrival may name, in either form. The compact
/// `k`/`topic`/`mass` form stands for a `k`-entry weight vector the
/// decoder allocates, so an unbounded `k` lets one hundred-byte line ask
/// for petabytes; the explicit `weights` form has the same bound because
/// [`event_json_fields`] writes a single or concentrated vector back in
/// the compact form, and what decodes must decode again once re-encoded
/// (the server's log holds the re-encoding).
const MAX_TOPICS: usize = 1 << 16;

/// The keys of one event object, each holding the value of its key's
/// first occurrence — `None` if the key is absent or holds another JSON
/// type. [`read_fields`] fills one straight from the text, for the log
/// reader and the `tirm_wire` decoder alike; [`EventFields::into_event`]
/// makes every check.
#[derive(Debug, Default)]
struct EventFields<'a> {
    /// `type`: the event kind.
    ty: Option<&'a str>,
    /// `at`: a log line's virtual time (no event check reads it).
    at: Option<f64>,
    /// `id`: the advertiser.
    id: Option<u64>,
    /// `budget` of an arrival.
    budget: Option<f64>,
    /// `cpe` of an arrival.
    cpe: Option<f64>,
    /// `ctp` of an arrival.
    ctp: Option<f64>,
    /// `k`, the topic count of an arrival's compact topic form.
    k: Option<u64>,
    /// `topic`, the dominant topic of the compact form.
    topic: Option<u64>,
    /// `mass`, the dominant topic's weight in the compact form.
    mass: Option<f64>,
    /// `weights`, an arrival's explicit topic vector if present: `None`
    /// when it is not an array, else each item (`None` where it is not a
    /// number).
    weights: Option<Option<Vec<Option<f64>>>>,
    /// `amount` of a top-up.
    amount: Option<f64>,
}

fn need<T>(value: Option<T>, key: &str) -> Result<T, String> {
    value.ok_or_else(|| format!("missing `{key}`"))
}

impl EventFields<'_> {
    /// The event these fields spell, after every check an event must
    /// pass to be admitted.
    fn into_event(self) -> Result<OnlineEvent, String> {
        let event = match need(self.ty, "type")? {
            "arrival" => {
                let topics = if let Some(ws) = self.weights {
                    // Explicit weight vector (non-single/concentrated).
                    let ws = ws.ok_or_else(|| "`weights` must be an array".to_string())?;
                    if ws.len() > MAX_TOPICS {
                        return Err("inconsistent topic distribution".to_string());
                    }
                    let weights: Vec<f32> = ws
                        .into_iter()
                        .map(|w| w.map(|x| x as f32))
                        .collect::<Option<_>>()
                        .ok_or_else(|| "non-numeric topic weight".to_string())?;
                    TopicDist::new(weights).map_err(|e| format!("bad topic weights: {e}"))?
                } else {
                    let k = need(self.k, "k")? as usize;
                    let topic = need(self.topic, "topic")? as usize;
                    let mass = need(self.mass, "mass")? as f32;
                    if !(1..=MAX_TOPICS).contains(&k) || topic >= k || !(0.0..=1.0).contains(&mass)
                    {
                        return Err("inconsistent topic distribution".to_string());
                    }
                    let dist = if k == 1 || mass >= 1.0 {
                        TopicDist::single(k, topic)
                    } else {
                        TopicDist::concentrated(k, topic, mass)
                    };
                    // Held to what the `weights` form is held to, because the
                    // writer falls back to that form when `topic` is not the
                    // heaviest: summed in `f32`, a few thousand equal shares
                    // of the remainder miss 1 by more than the tolerance.
                    TopicDist::new(dist.weights().to_vec())
                        .map_err(|_| "inconsistent topic distribution".to_string())?
                };
                // Narrowing can overflow to infinity, which has no JSON form
                // to be written back in.
                let ctp = need(self.ctp, "ctp")? as f32;
                if !ctp.is_finite() {
                    return Err("`ctp` out of range".to_string());
                }
                OnlineEvent::AdArrival {
                    id: need(self.id, "id")?,
                    budget: need(self.budget, "budget")?,
                    cpe: need(self.cpe, "cpe")?,
                    topics,
                    ctp,
                }
            }
            "topup" => OnlineEvent::BudgetTopUp {
                id: need(self.id, "id")?,
                amount: need(self.amount, "amount")?,
            },
            "departure" => OnlineEvent::AdDeparture {
                id: need(self.id, "id")?,
            },
            "reallocate" => OnlineEvent::Reallocate,
            "regret_query" => OnlineEvent::RegretQuery,
            other => return Err(format!("unknown event type {other:?}")),
        };
        Ok(event)
    }
}

/// Decodes one event object — the `type` + payload fields produced by
/// [`event_json_fields`]; any surrounding fields (like a log line's
/// `at`) are ignored. Integers are read through `Value`, so below
/// 9·10¹⁵.
pub fn event_from_value(v: &Value) -> Result<OnlineEvent, String> {
    let u64_of = |key: &str| v.get(key).and_then(Value::as_u64);
    let f64_of = |key: &str| v.get(key).and_then(Value::as_f64);
    EventFields {
        ty: v.get("type").and_then(Value::as_str),
        at: None,
        id: u64_of("id"),
        budget: f64_of("budget"),
        cpe: f64_of("cpe"),
        ctp: f64_of("ctp"),
        k: u64_of("k"),
        topic: u64_of("topic"),
        mass: f64_of("mass"),
        weights: v.get("weights").map(|ws| {
            ws.as_array()
                .map(|ws| ws.iter().map(Value::as_f64).collect())
        }),
        amount: f64_of("amount"),
    }
    .into_event()
}

/// Reads the event object at `r`, whose `type` is `ty`, into its
/// [`EventFields`]. The first occurrence of a key fills its field,
/// mistyped or not; later ones are skipped like unknown keys.
fn read_fields<'a>(r: &mut Reader<'_>, ty: &'a str) -> Result<EventFields<'a>, String> {
    let mut f = EventFields {
        ty: Some(ty),
        ..EventFields::default()
    };
    let mut seen = Vec::new();
    r.object(|r, key| {
        if seen.contains(&key) {
            return r.skip();
        }
        match &*key {
            "at" => f.at = r.f64()?,
            "id" => f.id = r.u64()?,
            "budget" => f.budget = r.f64()?,
            "cpe" => f.cpe = r.f64()?,
            "ctp" => f.ctp = r.f64()?,
            "k" => f.k = r.u64()?,
            "topic" => f.topic = r.u64()?,
            "mass" => f.mass = r.f64()?,
            "weights" => {
                let mut items = Vec::new();
                f.weights = Some(
                    r.array(|r| r.f64().map(|w| items.push(w)))?
                        .then_some(items),
                );
            }
            "amount" => f.amount = r.f64()?,
            _ => return r.skip(),
        }
        seen.push(key);
        Ok(())
    })?;
    Ok(f)
}

/// Reads the event object at `r`, whose `type` is `ty` — a mutation's
/// frame body, or an event-log line — and makes every check on it.
pub fn read_event(r: &mut Reader<'_>, ty: &str) -> Result<OnlineEvent, String> {
    read_fields(r, ty)?.into_event()
}

/// One log line: a mutation's frame body with `at` as one more key.
fn read_line(line: &str) -> Result<LogEvent, String> {
    let mut r = Reader::new(line.as_bytes())?;
    let ty = r.peek_type()?;
    let fields = read_fields(&mut r, &ty)?;
    r.end()?;
    Ok(LogEvent {
        at: need(fields.at, "at")?,
        event: fields.into_event()?,
    })
}

/// Parses a JSON-lines log produced by [`log_to_jsonl`] (blank lines are
/// skipped). A line is read like a frame body ([`read_event`]), so it is
/// admitted exactly when its body without `at` is.
pub fn log_from_jsonl(text: &str) -> Result<Vec<LogEvent>, LogError> {
    (text.lines().enumerate())
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(no, line)| read_line(line).map_err(|why| LogError::Malformed { line: no + 1, why }))
        .collect()
}

/// Writes a log file ([`log_to_jsonl`] format), creating parent
/// directories. The file is committed through the atomic temp+rename
/// writer ([`tirm_graph::snapshot::write_atomic`]), so an interrupted
/// writer (SIGINT mid-generation) can never leave a partially written
/// JSONL log under the final name.
pub fn write_log(path: &Path, log: &[LogEvent]) -> std::io::Result<()> {
    tirm_graph::snapshot::write_atomic(path, log_to_jsonl(log).as_bytes())
}

/// Reads a log file.
pub fn read_log(path: &Path) -> Result<Vec<LogEvent>, LogError> {
    let text = std::fs::read_to_string(path).map_err(LogError::Io)?;
    log_from_jsonl(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> EventStreamSpec {
        EventStreamSpec::for_dataset(DatasetKind::Epinions, 60, seed)
    }

    #[test]
    fn generation_is_deterministic_and_valid() {
        let a = spec(7).generate(0.1);
        let b = spec(7).generate(0.1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 60);
        // Valid by construction: replaying the model never references a
        // non-live id, times are non-decreasing, budgets positive.
        let mut live: Vec<AdId> = Vec::new();
        let mut last = 0.0;
        for e in &a {
            assert!(e.at >= last);
            last = e.at;
            match &e.event {
                OnlineEvent::AdArrival {
                    id,
                    budget,
                    cpe,
                    ctp,
                    ..
                } => {
                    assert!(!live.contains(id));
                    assert!(*budget > 0.0 && *cpe > 0.0);
                    assert!((0.0..=1.0).contains(ctp));
                    live.push(*id);
                }
                OnlineEvent::BudgetTopUp { id, amount } => {
                    assert!(live.contains(id));
                    assert!(*amount >= 0.0);
                }
                OnlineEvent::AdDeparture { id } => {
                    assert!(live.contains(id));
                    live.retain(|l| l != id);
                }
                _ => {}
            }
        }
        assert_ne!(spec(8).generate(0.1), a, "seed must matter");
    }

    #[test]
    fn budgets_are_heavy_tailed_and_truncated() {
        let s = EventStreamSpec {
            events: 400,
            max_live: 400,
            ..spec(3)
        };
        let log = s.generate(1.0);
        let budgets: Vec<f64> = log
            .iter()
            .filter_map(|e| match &e.event {
                OnlineEvent::AdArrival { budget, .. } => Some(*budget),
                _ => None,
            })
            .collect();
        assert!(budgets.len() > 100);
        let (lo, hi) = s.budget_range;
        assert!(budgets.iter().all(|&b| b >= lo * 0.999 && b <= hi * 1.001));
        // Heavy tail: the mean sits well above the median.
        let mut sorted = budgets.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        let mean = budgets.iter().sum::<f64>() / budgets.len() as f64;
        assert!(
            mean > median * 1.15,
            "mean {mean} vs median {median}: tail too light"
        );
    }

    #[test]
    fn steady_state_respects_max_live() {
        let s = EventStreamSpec {
            max_live: 3,
            events: 200,
            ..spec(11)
        };
        let log = s.generate(1.0);
        let mut live = 0usize;
        for e in &log {
            match e.event {
                OnlineEvent::AdArrival { .. } => {
                    live += 1;
                    assert!(live <= 3);
                }
                OnlineEvent::AdDeparture { .. } => live -= 1,
                _ => {}
            }
        }
    }

    #[test]
    fn resumed_campaigns_reuse_ids_and_topics() {
        let s = EventStreamSpec {
            resume_prob: 1.0,
            events: 300,
            ..spec(13)
        };
        let log = s.generate(1.0);
        let mut seen: std::collections::HashMap<AdId, TopicDist> = std::collections::HashMap::new();
        let mut resumed = 0usize;
        for e in &log {
            if let OnlineEvent::AdArrival { id, topics, .. } = &e.event {
                match seen.get(id) {
                    Some(prev) => {
                        assert_eq!(prev, topics, "resumption must keep the topic dist");
                        resumed += 1;
                    }
                    None => {
                        seen.insert(*id, topics.clone());
                    }
                }
            }
        }
        assert!(resumed > 0, "resume_prob = 1 must produce resumptions");
    }

    #[test]
    fn jsonl_round_trips_bit_exactly() {
        let mut log = spec(21).generate(0.05);
        // Ids past 2⁵³ too: the log reads integers exactly, like the wire.
        log.extend(
            [
                OnlineEvent::BudgetTopUp {
                    id: u64::MAX,
                    amount: 2.5,
                },
                OnlineEvent::AdDeparture { id: u64::MAX },
            ]
            .map(|event| LogEvent { at: 1e3, event }),
        );
        let text = log_to_jsonl(&log);
        let back = log_from_jsonl(&text).unwrap();
        assert_eq!(log, back);
        // Exactness down to float bits (shortest round-trip printing).
        for (a, b) in log.iter().zip(&back) {
            assert_eq!(a.at.to_bits(), b.at.to_bits());
        }
    }

    #[test]
    fn jsonl_round_trips_arbitrary_topic_dists() {
        // Distributions the compact k/topic/mass form cannot express must
        // survive via the explicit weight vector.
        let custom = TopicDist::new(vec![0.5, 0.3, 0.2]).unwrap();
        let log = vec![LogEvent {
            at: 1.5,
            event: OnlineEvent::AdArrival {
                id: 7,
                budget: 12.0,
                cpe: 1.25,
                topics: custom.clone(),
                ctp: 0.5,
            },
        }];
        let text = log_to_jsonl(&log);
        assert!(text.contains("\"weights\""), "{text}");
        let back = log_from_jsonl(&text).unwrap();
        match &back[0].event {
            OnlineEvent::AdArrival { topics, .. } => {
                assert_eq!(topics, &custom);
                for (a, b) in topics.weights().iter().zip(custom.weights()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("wrong event: {other:?}"),
        }
        // Uniform over 4 topics is also not concentrated-representable.
        let log = vec![LogEvent {
            at: 0.0,
            event: OnlineEvent::AdArrival {
                id: 1,
                budget: 1.0,
                cpe: 1.0,
                topics: TopicDist::uniform(4),
                ctp: 1.0,
            },
        }];
        let back = log_from_jsonl(&log_to_jsonl(&log)).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn jsonl_rejects_malformed_lines() {
        assert!(matches!(
            log_from_jsonl("{\"at\":1.0}"),
            Err(LogError::Malformed { line: 1, .. })
        ));
        assert!(matches!(
            log_from_jsonl("not json"),
            Err(LogError::Malformed { .. })
        ));
        assert!(matches!(
            log_from_jsonl("{\"at\":1.0,\"type\":\"martian\"}"),
            Err(LogError::Malformed { .. })
        ));
        // A `k` no topic model has: an error, not a petabyte allocation.
        assert!(matches!(
            log_from_jsonl(
                "{\"at\":1.0,\"type\":\"arrival\",\"id\":1,\"budget\":1,\"cpe\":1,\
                 \"k\":8000000000000000,\"topic\":0,\"mass\":1,\"ctp\":1}"
            ),
            Err(LogError::Malformed { .. })
        ));
        assert!(log_from_jsonl("\n\n").unwrap().is_empty());
        // Numbers `str::parse` takes and JSON does not: the wire refuses
        // them, so a log line does too.
        for number in ["01", "1.", "-01", "1.e3"] {
            for line in [
                format!("{{\"at\":1,\"type\":\"departure\",\"id\":{number}}}"),
                format!("{{\"at\":1,\"type\":\"topup\",\"id\":1,\"amount\":{number}}}"),
                format!("{{\"at\":{number},\"type\":\"reallocate\"}}"),
            ] {
                assert!(
                    matches!(log_from_jsonl(&line), Err(LogError::Malformed { .. })),
                    "{line}"
                );
            }
        }
    }

    #[test]
    fn what_decodes_decodes_again_once_written_back() {
        let arrival = |budget: &str, topics: &str, ctp: &str| {
            format!(
                "{{\"at\":0,\"type\":\"arrival\",\"id\":1,\"budget\":{budget},\"cpe\":1,\
                 {topics},\"ctp\":{ctp}}}"
            )
        };
        let malformed =
            |line: String| matches!(log_from_jsonl(&line), Err(LogError::Malformed { .. }));
        // The writer turns a point-mass `weights` vector into the compact
        // form, so both forms share one bound: at it the line survives
        // the rewrite, one past it neither form gets in.
        let point_mass = |k: usize| format!("\"weights\":[1{}]", ",0".repeat(k - 1));
        let log = log_from_jsonl(&arrival("1", &point_mass(MAX_TOPICS), "1")).unwrap();
        let text = log_to_jsonl(&log);
        assert!(text.contains(&format!("\"k\":{MAX_TOPICS},")), "{text}");
        assert_eq!(log_from_jsonl(&text).unwrap(), log);
        let compact = format!("\"k\":{},\"topic\":0,\"mass\":1", MAX_TOPICS + 1);
        assert!(malformed(arrival("1", &point_mass(MAX_TOPICS + 1), "1")));
        assert!(malformed(arrival("1", &compact, "1")));
        // A compact form the writer would answer with a `weights` vector
        // that does not sum to 1 in `f32` (topic 0 is not the heaviest).
        assert!(malformed(arrival(
            "1",
            "\"k\":30000,\"topic\":0,\"mass\":0",
            "1"
        )));
        // Numbers the writer would print as `inf`: past `f64` on the
        // line, past `f32` once narrowed.
        let one_topic = "\"k\":1,\"topic\":0,\"mass\":1";
        assert!(malformed(arrival("1e999", one_topic, "1")));
        assert!(malformed(arrival("1", one_topic, "1e300")));
        assert!(!malformed(arrival("1e300", one_topic, "1")));
    }

    #[test]
    fn final_population_folds_the_log() {
        let log = vec![
            LogEvent {
                at: 0.0,
                event: OnlineEvent::AdArrival {
                    id: 1,
                    budget: 10.0,
                    cpe: 1.0,
                    topics: TopicDist::single(1, 0),
                    ctp: 1.0,
                },
            },
            LogEvent {
                at: 1.0,
                event: OnlineEvent::AdArrival {
                    id: 2,
                    budget: 5.0,
                    cpe: 2.0,
                    topics: TopicDist::single(1, 0),
                    ctp: 0.5,
                },
            },
            LogEvent {
                at: 2.0,
                event: OnlineEvent::BudgetTopUp { id: 1, amount: 3.0 },
            },
            LogEvent {
                at: 3.0,
                event: OnlineEvent::AdDeparture { id: 2 },
            },
        ];
        let pop = final_population(&log);
        assert_eq!(pop.len(), 1);
        assert_eq!(pop[0].id, 1);
        assert_eq!(pop[0].budget, 13.0);
    }

    #[test]
    fn scale_budgets_multiplies_amounts() {
        let mut log = spec(5).generate(1.0);
        let before = final_population(&log);
        scale_budgets(&mut log, 0.5);
        let after = final_population(&log);
        for (a, b) in before.iter().zip(&after) {
            assert!((b.budget - a.budget * 0.5).abs() < 1e-9 * a.budget.max(1.0));
            assert_eq!(a.cpe, b.cpe);
        }
    }

    #[test]
    fn scalability_presets_are_fully_competitive() {
        let s = EventStreamSpec::for_dataset(DatasetKind::Dblp, 10, 1);
        assert_eq!(s.topics_k, 1);
        assert_eq!(s.cpe_range, (1.0, 1.0));
        assert_eq!(s.ctp_range, (1.0, 1.0));
        let q = EventStreamSpec::for_dataset(DatasetKind::Flixster, 10, 1);
        assert_eq!(q.topics_k, 10);
        assert!(q.ctp_range.1 <= 0.05);
    }
}
