//! Hostile input in a checkpoint (ROADMAP 6a, the checkpoint slice):
//! whatever the bytes say, [`OnlineAllocator::restore`] answers `Ok` or a
//! typed [`SnapshotError`] — it never panics — and since a checkpoint's
//! counts buy CPU and memory now, it never draws more RR sets than the
//! configuration's caps allow for the shards the payload has room to
//! declare. What it does accept it writes back word for word.
//!
//! Inputs are (i) arbitrary words behind a valid header and checksum,
//! and arbitrary bytes; (ii) a valid checkpoint with one to four words
//! replaced, inserted or deleted behind a recomputed checksum; (iii) the
//! same checkpoint with one named field pushed out of its domain, each
//! of which has to be refused, most of them before a single set is drawn.

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};
use tirm_core::TirmOptions;
use tirm_graph::snapshot::{read_words_stream, write_words_stream, SnapshotError};
use tirm_graph::{generators, DiGraph};
use tirm_obs::registry::RR_SETS_SAMPLED;
use tirm_online::{
    OnlineAllocator, OnlineConfig, OnlineEvent, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
use tirm_topics::{genprob, TopicDist, TopicEdgeProbs};

const NODES: usize = 120;
const MAX_THETA: usize = 1_500;
/// Payload words before the model: the WAL sequence number, the
/// configuration echo (κ, λ, seed, threads, ε, ℓ, the optional θ cap, two
/// flags) and the host shape echo (n, m, K).
const ECHO_WORDS: usize = 2 + (1 + 2 + 2 + 2 + 2 + 2 + 3 + 1 + 1) + 6;

/// `tirm_rrset_rr_sets_sampled_total` is one counter a process; the tests
/// of this file read differences of it, so they take turns.
fn sampling_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

fn config() -> OnlineConfig {
    OnlineConfig {
        tirm: TirmOptions {
            eps: 0.45,
            seed: 7,
            threads: 2,
            max_theta_per_ad: Some(MAX_THETA),
            ..TirmOptions::default()
        },
        kappa: 2,
        ..OnlineConfig::default()
    }
}

/// Host data, the payload words of a valid checkpoint over it (two live
/// ads, two pooled shards), and the sets a restore of it draws.
struct Fixture {
    graph: DiGraph,
    probs: TopicEdgeProbs,
    words: Vec<u32>,
    valid_cost: u64,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let graph = generators::preferential_attachment(NODES, 3, 0.3, 5);
        let probs = genprob::exponential_topic_probs(graph.num_edges(), 2, 8.0, 5 ^ 0x77);
        let arrival = |id, budget, topic| OnlineEvent::AdArrival {
            id,
            budget,
            cpe: 1.0,
            topics: TopicDist::single(2, topic),
            ctp: 0.5,
        };
        let mut a = OnlineAllocator::new(&graph, &probs, config());
        for ev in [
            arrival(1, 5.0, 0),
            arrival(2, 4.0, 1),
            arrival(3, 3.0, 0),
            OnlineEvent::AdDeparture { id: 1 },
            arrival(4, 6.0, 1),
            OnlineEvent::AdDeparture { id: 3 },
            OnlineEvent::BudgetTopUp { id: 2, amount: 2.0 },
        ] {
            a.process(&ev).unwrap();
        }
        let mut bytes = Vec::new();
        a.checkpoint(7, &mut bytes).unwrap();
        let words =
            read_words_stream(&mut bytes.as_slice(), CHECKPOINT_MAGIC, CHECKPOINT_VERSION).unwrap();
        drop(a);
        let before = RR_SETS_SAMPLED.get();
        let mut fx = Fixture {
            graph,
            probs,
            words,
            valid_cost: 0,
        };
        assert!(restore(&fx, &fx.words).is_ok());
        fx.valid_cost = RR_SETS_SAMPLED.get() - before;
        fx
    })
}

fn framed(words: &[u32]) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_words_stream(&mut bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, words).unwrap();
    bytes
}

fn restore<'g>(fx: &'g Fixture, words: &[u32]) -> Result<OnlineAllocator<'g>, SnapshotError> {
    OnlineAllocator::restore(
        &fx.graph,
        &fx.probs,
        config(),
        &mut framed(words).as_slice(),
    )
    .map(|(a, _)| a)
}

/// Restores `words` and returns the answer with the sets it drew. What
/// gets in gets back out, word for word.
fn probe(fx: &Fixture, words: &[u32]) -> (Result<(), SnapshotError>, u64) {
    let before = RR_SETS_SAMPLED.get();
    let answer = restore(fx, words);
    let drawn = RR_SETS_SAMPLED.get() - before;
    let answer = answer.map(|mut a| {
        let mut again = Vec::new();
        a.checkpoint(u64::from(words[0]) | u64::from(words[1]) << 32, &mut again)
            .unwrap();
        assert!(
            again == framed(words),
            "an accepted payload changed on its way back out"
        );
    });
    (answer, drawn)
}

/// The last round of the KPT estimator over `n` nodes at ℓ = 1: the most
/// estimation samples one shard can hold.
fn last_kpt_round(n: usize) -> u64 {
    let log2n = (n as f64).log2();
    let base = 6.0 * (n as f64).ln() + 6.0 * log2n.ln();
    (base * 2f64.powi(log2n.floor() as i32 - 1)).ceil() as u64
}

/// The most a payload of `words` words can make a restore draw: every
/// shard it has room to declare, each at both caps.
fn cap(words: usize) -> u64 {
    (words as u64 / 8 + 1) * (MAX_THETA as u64 + last_kpt_round(NODES))
}

/// Where the fields of a valid payload are, by walking the v2 layout.
struct Layout {
    num_live: usize,
    /// Per live ad: id, budget, cpe, topic count, ctp, seed count, the
    /// shard flag and the shard's four counts.
    live: Vec<[usize; 7]>,
    /// Per pool entry: id and the shard's four counts.
    pooled: Vec<[usize; 2]>,
}

fn layout(words: &[u32]) -> Layout {
    let u64_at = |at: usize| u64::from(words[at]) | u64::from(words[at + 1]) << 32;
    // Past the echoes: epoch, stale, contended, five counters.
    let mut at = ECHO_WORDS + (2 + 1 + 1 + 10);
    at += 2 + 2 * u64_at(at) as usize; // dirty ids
    let num_live = at;
    at += 2;
    let mut live = Vec::new();
    for _ in 0..u64_at(num_live) {
        let id = at;
        let (budget, cpe, topics) = (id + 2, id + 4, id + 6);
        let ctp = topics + 2 + u64_at(topics) as usize;
        let seeds = ctp + 1;
        let flag = seeds + 2 + u64_at(seeds) as usize + 2;
        assert_eq!(words[flag], 1, "every live ad of the fixture has run");
        live.push([id, budget, cpe, topics, ctp, seeds, flag]);
        at = flag + 1 + 8;
    }
    at += 2; // evictions
    let num_pooled = u64_at(at);
    at += 2;
    let mut pooled = Vec::new();
    for _ in 0..num_pooled {
        let topics = at + 2;
        let shard = topics + 2 + u64_at(topics) as usize;
        pooled.push([at, shard]);
        at = shard + 8;
    }
    assert_eq!(at, words.len(), "the walk covers the payload");
    Layout {
        num_live,
        live,
        pooled,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_words_and_bytes_get_a_typed_error(
        words in proptest::collection::vec(0u32..=u32::MAX, 0..200),
        bytes in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        let _turn = sampling_turn();
        let fx = fixture();
        let (answer, drawn) = probe(fx, &words);
        prop_assert!(answer.is_err());
        prop_assert_eq!(drawn, 0);
        let raw = OnlineAllocator::restore(&fx.graph, &fx.probs, config(), &mut bytes.as_slice());
        prop_assert!(raw.is_err());
    }

    #[test]
    fn edited_checkpoints_get_a_typed_answer_within_the_caps(
        edits in proptest::collection::vec((0u8..4, 0usize..1 << 16, 0u32..=u32::MAX, 0u8..4), 1..=3),
    ) {
        let _turn = sampling_turn();
        let fx = fixture();
        let mut words = fx.words.clone();
        for (edit, at, word, aim) in edits {
            // Any edit to the echoes at the head of the payload is
            // refused there; three in four aim past them, at the model
            // and the counts. Half the words written are small ones:
            // flags, lengths and the high halves of counts look like that.
            let len = words.len();
            let at = if aim == 0 { at % len } else { ECHO_WORDS + at % (len - ECHO_WORDS) };
            let word = if aim < 2 { word } else { word % 4 };
            match edit {
                0 => words[at] = word,
                1 => words[at] = words[at].wrapping_add(word % 5).wrapping_sub(2),
                2 => words.insert(at, word),
                _ => drop(words.remove(at)),
            }
        }
        let (_, drawn) = probe(fx, &words);
        prop_assert!(drawn <= cap(words.len()), "{} sets drawn", drawn);
    }
}

#[test]
fn fields_out_of_their_domain_are_refused() {
    let _turn = sampling_turn();
    let fx = fixture();
    let at = layout(&fx.words);
    let n = NODES as u32;
    let nan = f64::NAN.to_bits();
    let set64 = |w: &mut Vec<u32>, at: usize, v: u64| {
        w[at] = v as u32;
        w[at + 1] = (v >> 32) as u32;
    };
    let [id0, budget0, cpe0, topics0, ctp0, seeds0, flag0] = at.live[0];
    let [id1, ..] = at.live[1];
    let shard0 = flag0 + 1;
    let [pool_id0, _] = at.pooled[0];
    let [pool_id1, pool_shard1] = at.pooled[1];
    assert!(fx.words[seeds0] >= 2, "the first live ad holds two seeds");

    // (what, the edit, whether anything may have been drawn first)
    type Edit<'a> = Box<dyn Fn(&mut Vec<u32>) + 'a>;
    let cases: Vec<(&str, Edit<'_>, bool)> = vec![
        ("θ × 2⁴⁰", Box::new(|w| w[shard0 + 1] |= 1 << 8), false),
        (
            "KPT samples × 2⁴⁰",
            Box::new(|w| w[shard0 + 3] |= 1 << 8),
            false,
        ),
        (
            "KPT samples inside a round",
            Box::new(|w| w[shard0 + 2] += 1),
            false,
        ),
        ("θ₀ > θ", Box::new(|w| w[shard0 + 4] = w[shard0] + 1), false),
        (
            "θ past the cap",
            Box::new(|w| w[shard0] = MAX_THETA as u32 + 1),
            false,
        ),
        (
            "set sizes of another graph",
            Box::new(|w| w[shard0 + 6] += 1),
            true,
        ),
        (
            "a pooled θ × 2⁴⁰",
            Box::new(|w| w[pool_shard1 + 1] |= 1 << 8),
            true,
        ),
        (
            "a pooled shard's set sizes",
            Box::new(|w| w[pool_shard1 + 6] ^= 1),
            true,
        ),
        (
            "a live id twice",
            Box::new(|w| w.copy_within(id0..id0 + 2, id1)),
            false,
        ),
        (
            "a pooled id twice",
            Box::new(|w| w.copy_within(pool_id0..pool_id0 + 2, pool_id1)),
            false,
        ),
        (
            "a seed outside the graph",
            Box::new(|w| w[seeds0 + 2] = n),
            false,
        ),
        (
            "a seed twice",
            Box::new(|w| w[seeds0 + 3] = w[seeds0 + 2]),
            false,
        ),
        ("a NaN budget", Box::new(|w| set64(w, budget0, nan)), false),
        (
            "a negative budget",
            Box::new(|w| set64(w, budget0, (-1.0f64).to_bits())),
            false,
        ),
        ("a zero cpe", Box::new(|w| set64(w, cpe0, 0)), false),
        (
            "a NaN revenue estimate",
            Box::new(|w| set64(w, flag0 - 2, nan)),
            false,
        ),
        (
            "a ctp of 2",
            Box::new(|w| w[ctp0] = 2.0f32.to_bits()),
            false,
        ),
        (
            "topic weights summing to 2",
            Box::new(|w| w[topics0 + 2..topics0 + 4].fill(1.0f32.to_bits())),
            false,
        ),
        (
            "an ad in a 3-topic space",
            Box::new(|w| {
                w[topics0] = 3;
                w.insert(topics0 + 4, 0);
            }),
            false,
        ),
        ("a flag of 2", Box::new(|w| w[flag0] = 2), false),
        (
            "2⁴⁰ live ads",
            Box::new(|w| w[at.num_live + 1] |= 1 << 8),
            false,
        ),
        ("a live ad short", Box::new(|w| w[at.num_live] -= 1), false),
        ("trailing words", Box::new(|w| w.extend([0, 0])), false),
        (
            "a missing last word",
            Box::new(|w| w.truncate(w.len() - 1)),
            false,
        ),
    ];
    for (what, edit, may_draw) in cases {
        let mut words = fx.words.clone();
        edit(&mut words);
        let (answer, drawn) = probe(fx, &words);
        assert!(
            matches!(answer, Err(SnapshotError::Malformed(_))),
            "{what}: {answer:?}"
        );
        let allowed = if may_draw { fx.valid_cost } else { 0 };
        assert!(drawn <= allowed, "{what}: {drawn} sets drawn");
    }
}

#[test]
fn other_host_data_of_the_same_shape_and_old_versions_are_refused() {
    let _turn = sampling_turn();
    let fx = fixture();
    // Same n, m and K, other probabilities: the shape echo passes, the
    // shards redrawn over them do not add up.
    let other = genprob::exponential_topic_probs(fx.graph.num_edges(), 2, 8.0, 99);
    let image = framed(&fx.words);
    match OnlineAllocator::restore(&fx.graph, &other, config(), &mut image.as_slice()) {
        Err(SnapshotError::Malformed(why)) => {
            assert!(
                why.starts_with("ad 2:") && why.contains("graph and probabilities"),
                "{why}"
            )
        }
        Err(e) => panic!("wrong error kind: {e}"),
        Ok(_) => panic!("a checkpoint restored over other probabilities"),
    }

    // The full-state layout this one replaced: no reader, a typed refusal.
    let mut v1 = Vec::new();
    write_words_stream(&mut v1, CHECKPOINT_MAGIC, 1, &fx.words).unwrap();
    assert!(matches!(
        OnlineAllocator::restore(&fx.graph, &fx.probs, config(), &mut v1.as_slice()),
        Err(SnapshotError::UnsupportedVersion(1))
    ));

    // The layout whose configuration echo still held a global seed cap:
    // refused the same way.
    let mut v2 = Vec::new();
    write_words_stream(&mut v2, CHECKPOINT_MAGIC, 2, &fx.words).unwrap();
    assert!(matches!(
        OnlineAllocator::restore(&fx.graph, &fx.probs, config(), &mut v2.as_slice()),
        Err(SnapshotError::UnsupportedVersion(2))
    ));
}
