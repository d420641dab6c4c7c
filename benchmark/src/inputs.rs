//! Input generation: everything a workload feeds the program is a pure
//! function of `--seed` (and of the size table below). The program only
//! ever receives the generated inputs — a graph snapshot in the
//! run-private `TIRM_SNAPSHOT_DIR`, a campaign, an event log.

use std::path::Path;
use tirm_online::OnlineEvent;
use tirm_topics::TopicDist;
use tirm_workloads::events::event_json_fields;
use tirm_workloads::{
    Dataset, DatasetKind, DatasetTiming, EventStreamSpec, ProbModel, ScaleConfig,
};

/// Sampler threads inside the program (`TIRM_THREADS`), fixed so a run
/// does the same work whatever the machine (README, N4).
pub const PROGRAM_THREADS: usize = 2;

/// The four workloads, in `--all` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold batch TIRM on a LIVEJOURNAL-like graph.
    BatchTirm,
    /// Contended campaign churn against one durable server.
    ServeChurn,
    /// Contention-free churn against a leader, observed at a follower.
    ReplicaFollow,
    /// Reads of a large standing allocation.
    ServeReads,
}

impl Workload {
    /// Every workload, in `--all` order.
    pub const ALL: [Workload; 4] = [
        Workload::BatchTirm,
        Workload::ServeChurn,
        Workload::ReplicaFollow,
        Workload::ServeReads,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchTirm => "batch-tirm",
            Workload::ServeChurn => "serve-churn",
            Workload::ReplicaFollow => "replica-follow",
            Workload::ServeReads => "serve-reads",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Sizes of one workload. Calibrated once on the reference box against
/// the magnitude floors (README, N5); `--smoke` swaps in tiny ones.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `TIRM_SCALE` of the dataset.
    pub scale: f64,
    /// Live campaigns the event stream holds at steady state
    /// (advertisers `h` on `batch-tirm`).
    pub live_ads: usize,
    /// Mutations sent before the measured segments (set-up).
    pub preload: usize,
    /// Ops of the one-in-flight segment (allocations on `batch-tirm`,
    /// reads per connection on `serve-reads`).
    pub segment_a: usize,
    /// Ops of the pipelined segment (0 where there is none).
    pub segment_b: usize,
    /// The throughput segment is cut every this many ops (README, N3).
    pub chunk: usize,
    /// Rounds of a run at the nominal `--seconds`: as many as the time
    /// a run has allows, never below six.
    pub rounds: usize,
}

impl Sizes {
    /// The size table.
    pub fn of(workload: Workload, smoke: bool) -> Sizes {
        match (workload, smoke) {
            (Workload::BatchTirm, false) => Sizes {
                scale: 0.5,
                live_ads: 5,
                preload: 0,
                segment_a: 3,
                segment_b: 0,
                chunk: 1,
                rounds: 6,
            },
            (Workload::ServeChurn, false) => Sizes {
                scale: 0.1,
                live_ads: 6,
                preload: 36,
                segment_a: 120,
                segment_b: 120,
                chunk: 20,
                rounds: 8,
            },
            (Workload::ReplicaFollow, false) => Sizes {
                scale: 0.1,
                live_ads: 6,
                preload: 120,
                segment_a: 90,
                segment_b: 140,
                chunk: 30,
                rounds: 6,
            },
            (Workload::ServeReads, false) => Sizes {
                scale: 0.2,
                live_ads: 16,
                preload: 16,
                segment_a: 1000,
                segment_b: 0,
                chunk: READS_PER_TOPUP,
                rounds: 10,
            },
            (Workload::BatchTirm, true) => Sizes {
                scale: 0.02,
                live_ads: 3,
                preload: 0,
                segment_a: 2,
                segment_b: 0,
                chunk: 1,
                rounds: 2,
            },
            (Workload::ServeChurn, true) => Sizes {
                scale: 0.05,
                live_ads: 3,
                preload: 4,
                segment_a: 8,
                segment_b: 8,
                chunk: 4,
                rounds: 2,
            },
            (Workload::ReplicaFollow, true) => Sizes {
                scale: 0.05,
                live_ads: 3,
                preload: 10,
                segment_a: 8,
                segment_b: 10,
                chunk: 4,
                rounds: 2,
            },
            (Workload::ServeReads, true) => Sizes {
                scale: 0.05,
                live_ads: 4,
                preload: 4,
                segment_a: 40,
                segment_b: 0,
                chunk: READS_PER_TOPUP,
                rounds: 2,
            },
        }
    }
}

/// How often `serve-reads` precedes an `allocation` read with a top-up.
pub const READS_PER_TOPUP: usize = 100;

/// Budget multiplier of the `serve-reads` campaigns: large seed sets, so
/// the `allocation` payload is tens of kilobytes and a read costs
/// hundreds of microseconds rather than tens.
const READS_BUDGET_BOOST: f64 = 8.0;

/// The kinds of one churn cycle, the same in every run: by how much an
/// event moves a campaign comes from the seed; what kind of event sits at
/// a log position, which campaign it touches and that campaign's topic
/// do not. Ten seeds then describe one workload, and a position costs
/// about the same whatever the seed.
const CHURN_CYCLE: [CycleStep; 10] = {
    use CycleStep::*;
    [
        TopUp, TopUp, Depart, Arrive, TopUp, TopUp, Depart, Resume, TopUp, TopUp,
    ]
};

#[derive(Clone, Copy)]
enum CycleStep {
    TopUp,
    Depart,
    /// A campaign the engine has never seen (pays for fresh RR sets).
    Arrive,
    /// A departed campaign comes back (reclaims its pooled RR sets).
    Resume,
}

/// Seeded generator of valid campaign events. Budgets, CPEs and CTPs are
/// the middle of the dataset's `EventStreamSpec::for_dataset` ranges,
/// ±3 %: wide enough that campaigns differ, narrow enough that the
/// total work of a log does not depend on which seed drew it.
struct CampaignStream {
    state: u64,
    budget_mid: f64,
    cpe_mid: f64,
    ctp_mid: f64,
    topics_k: usize,
    next_id: u64,
    turn: u64,
    live: Vec<(u64, TopicDist)>,
    departed: Vec<(u64, TopicDist)>,
}

impl CampaignStream {
    fn new(kind: DatasetKind, seed: u64, size_ratio: f64, budget_boost: f64) -> Self {
        let spec = EventStreamSpec::for_dataset(kind, 1, seed);
        let mid = |(lo, hi): (f64, f64)| (lo + hi) / 2.0;
        CampaignStream {
            state: seed ^ 0x0e5e_17f1,
            budget_mid: mid(spec.budget_range) * size_ratio * budget_boost,
            cpe_mid: mid(spec.cpe_range),
            ctp_mid: mid((spec.ctp_range.0 as f64, spec.ctp_range.1 as f64)),
            topics_k: spec.topics_k,
            next_id: 1,
            turn: 0,
            live: Vec::new(),
            departed: Vec::new(),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// `mid` ± 3 %.
    fn around(&mut self, mid: f64) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        mid * (0.97 + 0.06 * unit)
    }

    /// Which of `n` campaigns an event touches: they take turns, whatever
    /// the seed.
    fn pick(&mut self, n: usize) -> usize {
        self.turn += 1;
        (self.turn % n as u64) as usize
    }

    fn arrival(&mut self, resume: bool) -> OnlineEvent {
        let (id, topics) = if resume && !self.departed.is_empty() {
            let i = self.pick(self.departed.len());
            self.departed.remove(i)
        } else {
            let id = self.next_id;
            self.next_id += 1;
            let topics = if self.topics_k == 1 {
                TopicDist::single(1, 0)
            } else {
                // The topic belongs to the campaign's place in the log,
                // not to the seed: neighbouring ids get unlike topics.
                let main = (id as usize * 7) % self.topics_k;
                TopicDist::concentrated(self.topics_k, main, 0.91)
            };
            (id, topics)
        };
        self.live.push((id, topics.clone()));
        OnlineEvent::AdArrival {
            id,
            budget: self.around(self.budget_mid),
            cpe: self.around(self.cpe_mid),
            topics,
            ctp: self.around(self.ctp_mid) as f32,
        }
    }

    fn top_up(&mut self) -> OnlineEvent {
        let i = self.pick(self.live.len());
        let id = self.live[i].0;
        OnlineEvent::BudgetTopUp {
            id,
            amount: 0.1 * self.around(self.budget_mid),
        }
    }

    fn departure(&mut self) -> OnlineEvent {
        let i = self.pick(self.live.len());
        let gone = self.live.remove(i);
        let id = gone.0;
        self.departed.push(gone);
        OnlineEvent::AdDeparture { id }
    }

    /// `total` events: `live` arrivals, then the churn cycle.
    fn churn(&mut self, live: usize, total: usize) -> Vec<OnlineEvent> {
        (0..total)
            .map(|i| {
                if i < live {
                    return self.arrival(false);
                }
                match CHURN_CYCLE[(i - live) % CHURN_CYCLE.len()] {
                    CycleStep::TopUp => self.top_up(),
                    CycleStep::Depart => self.departure(),
                    CycleStep::Arrive => self.arrival(false),
                    CycleStep::Resume => self.arrival(true),
                }
            })
            .collect()
    }
}

/// The generated inputs of one workload run.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Which workload these feed.
    pub workload: Workload,
    /// The sizes they were generated at.
    pub sizes: Sizes,
    /// Network shape.
    pub kind: DatasetKind,
    /// Arc probability model.
    pub model: ProbModel,
    /// Seed of the dataset generator, and — because `tirm_server` has
    /// one `--seed` for both — of a served program's TIRM streams. A
    /// constant of the workload: the network is the host's fixed asset,
    /// what `--seed` draws is the traffic on it.
    pub dataset_seed: u64,
    /// What `--seed` becomes for this workload: drives the campaigns
    /// (the budget on `batch-tirm`) and the event log.
    pub run_seed: u64,
    /// Attention bound κ.
    pub kappa: u32,
    /// Seed-set size penalty λ.
    pub lambda: f64,
    /// Mutations sent during set-up.
    pub preload: Vec<OnlineEvent>,
    /// Mutations of the one-in-flight segment (the in-line top-ups on
    /// `serve-reads`).
    pub segment_a: Vec<OnlineEvent>,
    /// Mutations of the pipelined segment.
    pub segment_b: Vec<OnlineEvent>,
    /// `--checkpoint-interval` of every server child (README, N7).
    pub checkpoint_interval: u64,
    /// `--segment-events` of every server child.
    pub segment_events: u64,
    /// Per-advertiser budget on `batch-tirm`.
    pub batch_budget: f64,
}

/// SplitMix64 — the benchmark's own seed mixer.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a byte stream, the fingerprint hash used throughout.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes one word in.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64, smoke: bool) -> Inputs {
        let sizes = Sizes::of(workload, smoke);
        // One stream of seeds per workload, so two workloads never share
        // a graph or a log by accident.
        let tag = (workload as u64 + 1).wrapping_mul(0x5eed_0000_0001);
        let dataset_seed = splitmix64(tag);
        let run_seed = splitmix64(seed ^ tag);
        let (kind, model) = match workload {
            Workload::BatchTirm => (DatasetKind::LiveJournal, ProbModel::WeightedCascade),
            _ => (DatasetKind::Epinions, ProbModel::Exponential),
        };
        let mut inputs = Inputs {
            workload,
            sizes,
            kind,
            model,
            dataset_seed,
            run_seed,
            kappa: 1,
            lambda: match workload {
                Workload::BatchTirm => 1.0,
                _ => 0.01,
            },
            preload: Vec::new(),
            segment_a: Vec::new(),
            segment_b: Vec::new(),
            // No periodic checkpoint unless a workload asks for one.
            checkpoint_interval: 1 << 40,
            segment_events: 1024,
            batch_budget: 0.0,
        };
        let size_ratio = kind.size_ratio_at(&inputs.scale_config());
        match workload {
            Workload::BatchTirm => {
                // §6.2: h identical advertisers, CPE = CTP = 1, κ = 1. The
                // √-boost below paper scale is the suite's convention: it
                // keeps budget ≫ one hub's spread.
                let boost = (1.0 / sizes.scale.min(1.0)).sqrt();
                let unit = (splitmix64(run_seed) >> 11) as f64 / (1u64 << 53) as f64;
                inputs.batch_budget = 80_000.0 * size_ratio * boost * (0.97 + 0.06 * unit);
            }
            Workload::ServeChurn | Workload::ReplicaFollow => {
                let (p, a, b) = (sizes.preload, sizes.segment_a, sizes.segment_b);
                let mut stream = CampaignStream::new(kind, run_seed, size_ratio, 1.0);
                let mut log = stream.churn(sizes.live_ads, p + a + b).into_iter();
                inputs.preload = log.by_ref().take(p).collect();
                inputs.segment_a = log.by_ref().take(a).collect();
                inputs.segment_b = log.collect();
                if workload == Workload::ServeChurn {
                    // κ = 1 < live ads: the standing allocation is
                    // contended, so every reconciliation is the full
                    // interleaved re-run. One periodic checkpoint, in the
                    // middle of segment B.
                    inputs.kappa = 1;
                    inputs.checkpoint_interval = (p + a + b / 2) as u64;
                } else {
                    // κ > live ads: nobody's attention saturates, so every
                    // reconciliation is a per-ad delta. A checkpoint at the
                    // end of the preload (and the segment rotation before
                    // it) prunes the leader's log, so the follower has to
                    // bootstrap from the checkpoint; the next one lands in
                    // segment B on leader and follower alike, which needs
                    // a < p <= a + b, and only that one, which needs
                    // 2p > a + b.
                    assert!(
                        a < p && p <= a + b && 2 * p > a + b,
                        "exactly one checkpoint must land in segment B"
                    );
                    inputs.kappa = sizes.live_ads as u32 + 1;
                    inputs.checkpoint_interval = p as u64;
                    inputs.segment_events = (p / 2) as u64;
                }
            }
            Workload::ServeReads => {
                let mut stream =
                    CampaignStream::new(kind, run_seed, size_ratio, READS_BUDGET_BOOST);
                inputs.kappa = sizes.live_ads as u32 + 1;
                inputs.preload = (0..sizes.preload).map(|_| stream.arrival(false)).collect();
                inputs.segment_a = (0..sizes.segment_a.div_ceil(READS_PER_TOPUP))
                    .map(|_| stream.top_up())
                    .collect();
            }
        }
        inputs
    }

    /// The `ScaleConfig` the program resolves from its environment.
    pub fn scale_config(&self) -> ScaleConfig {
        ScaleConfig {
            scale: self.sizes.scale,
            eval_runs: 0,
            threads: PROGRAM_THREADS,
        }
    }

    /// Every mutation of a round, in order.
    pub fn all_events(&self) -> impl Iterator<Item = &OnlineEvent> {
        self.preload
            .iter()
            .chain(&self.segment_a)
            .chain(&self.segment_b)
    }

    /// Generates the dataset and leaves its snapshot in `dir`, where the
    /// program (given the same kind, model, scale and seed) finds it.
    pub fn prepare_dataset(&self, dir: &Path) -> Dataset {
        self.load_dataset(dir).0
    }

    /// [`Self::prepare_dataset`] with how the dataset was materialised:
    /// generated (first call on a directory) or loaded from its snapshot.
    pub fn load_dataset(&self, dir: &Path) -> (Dataset, DatasetTiming) {
        let cfg = self.scale_config();
        Dataset::load_or_generate(self.kind, self.model, &cfg, self.dataset_seed, Some(dir))
    }

    /// Fingerprint of everything the program receives: the graph, its
    /// arc probabilities, and the event log.
    pub fn fingerprint(&self, dataset: &Dataset) -> u64 {
        let mut h = Fnv::default();
        h.word(dataset.graph.num_nodes() as u64);
        h.word(dataset.graph.num_edges() as u64);
        for &src in dataset.graph.in_sources_raw() {
            h.bytes(&src.to_le_bytes());
        }
        for p in dataset.topic_probs.flat() {
            h.bytes(&p.to_bits().to_le_bytes());
        }
        h.word(self.dataset_seed);
        h.word(self.run_seed);
        h.word(self.kappa as u64);
        h.word(self.lambda.to_bits());
        h.word(self.batch_budget.to_bits());
        for ev in self.all_events() {
            h.bytes(event_json_fields(ev).as_bytes());
        }
        h.0
    }
}
