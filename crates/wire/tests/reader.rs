//! The frame reader against its grammar oracle and its own contract.
//!
//! The decoders read frames with their own strict pull reader, not with
//! the vendored `serde_json`; here `serde_json::from_str` serves only as
//! the oracle for the grammar. Whatever it refuses (on arbitrary bytes
//! and on the valid frames of `corpus` with one to four bytes replaced,
//! inserted or deleted — the generators of `hostile_input.rs`), both
//! decoders refuse too. The fixed cases pin the object rules (keys in
//! any order, the first occurrence wins, the nesting cap holds in
//! skipped values) and the integer rules (`u64::MAX` decodes; `5.0` is
//! no integer). The round-trip property covers the values an allocation
//! carries that an `f64` tree cannot: ids and epochs above 2⁵³, next to
//! subnormals and `-0.0`.

use proptest::prelude::*;
use tirm_online::{AdSnapshot, AllocationSnapshot, OnlineEvent};
use tirm_topics::TopicDist;
use tirm_wire::{write_frame, Request, Response, Role, StatsView};

mod corpus;

/// Both decoders refuse whatever the oracle refuses.
fn refuses_what_the_oracle_refuses(bytes: &[u8]) {
    let oracle = std::str::from_utf8(bytes).map(serde_json::from_str);
    if !matches!(oracle, Ok(Ok(_))) {
        let text = String::from_utf8_lossy(bytes);
        assert!(
            Request::decode(bytes).is_err(),
            "request admitted {text:.200}"
        );
        assert!(
            Response::decode(bytes).is_err(),
            "response admitted {text:.200}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_the_oracle_refuses_are_refused(
        bytes in proptest::collection::vec(0u8..=255, 0..300),
    ) {
        refuses_what_the_oracle_refuses(&bytes);
    }

    #[test]
    fn edited_frames_the_oracle_refuses_are_refused(
        pick in 0usize..1 << 16,
        edits in proptest::collection::vec((0u8..3, 0usize..1 << 16, 0u8..=255), 1..=4),
    ) {
        let (requests, responses) = (corpus::requests(), corpus::responses());
        let pick = pick % (requests.len() + responses.len());
        let body = match requests.get(pick) {
            Some((_, body)) => body,
            None => &responses[pick - requests.len()].1,
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, body.as_bytes()).expect("writing to a Vec");
        for (edit, at, byte) in edits {
            let len = frame.len();
            match edit {
                0 if len > 0 => frame[at % len] = byte,
                1 => frame.insert(at % (len + 1), byte),
                2 if len > 0 => drop(frame.remove(at % len)),
                _ => {}
            }
        }
        refuses_what_the_oracle_refuses(&frame);
        refuses_what_the_oracle_refuses(frame.get(4..).unwrap_or_default());
    }
}

#[test]
fn the_type_tag_may_come_last() {
    let last = r#"{"id":9,"type":"ad"}"#;
    assert_eq!(
        Request::decode(last.as_bytes()),
        Ok(Request::AdQuery { id: 9 })
    );
    let hello = r#"{"role":"follower","epoch":12,"fencing_epoch":3,"wal_seq":9,"version":5,"type":"hello"}"#;
    assert_eq!(
        Response::decode(hello.as_bytes()),
        Ok(Response::Hello {
            version: 5,
            epoch: 12,
            wal_seq: 9,
            role: Role::Follower,
            fencing_epoch: 3,
        })
    );
    let topup = r#"{"amount":2.5,"id":3,"type":"topup"}"#;
    assert_eq!(
        Request::decode(topup.as_bytes()),
        Ok(Request::Mutate(OnlineEvent::BudgetTopUp {
            id: 3,
            amount: 2.5
        }))
    );
    assert!(Request::decode(br#"{"id":9}"#).is_err(), "no tag at all");
    assert!(
        Request::decode(br#"{"id":9,"type":7}"#).is_err(),
        "a tag that is no string"
    );
}

#[test]
fn the_first_occurrence_of_a_key_wins() {
    let first = |body: &str| Request::decode(body.as_bytes());
    assert_eq!(
        first(r#"{"type":"ad","id":1,"id":2}"#),
        Ok(Request::AdQuery { id: 1 })
    );
    assert_eq!(
        first(r#"{"type":"ad","type":"stats","id":1}"#),
        Ok(Request::AdQuery { id: 1 })
    );
    // A mistyped first occurrence is not rescued by a later one, in a
    // table row and in an event alike.
    assert!(first(r#"{"type":"ad","id":"1","id":2}"#).is_err());
    assert!(first(r#"{"type":"topup","id":3,"amount":"x","amount":2.5}"#).is_err());
    assert_eq!(
        first(r#"{"type":"topup","id":3,"amount":2.5,"amount":"x"}"#),
        Ok(Request::Mutate(OnlineEvent::BudgetTopUp {
            id: 3,
            amount: 2.5
        }))
    );
    // An event key the event does not read may hold anything well formed.
    assert_eq!(
        first(r#"{"type":"departure","id":3,"k":"x","weights":{}}"#),
        Ok(Request::Mutate(OnlineEvent::AdDeparture { id: 3 }))
    );
}

#[test]
fn unknown_keys_are_checked_up_to_the_nesting_cap() {
    // The frame object is one level; its unknown value brings the rest.
    let stats = |depth: usize| {
        let nested = "[".repeat(depth) + &"]".repeat(depth);
        format!(r#"{{"type":"stats","x":{nested}}}"#)
    };
    for (depth, admitted) in [(127, true), (128, false), (129, false)] {
        let body = stats(depth);
        assert_eq!(
            serde_json::from_str(&body).is_ok(),
            admitted,
            "oracle, depth {depth}"
        );
        assert_eq!(
            Request::decode(body.as_bytes()).is_ok(),
            admitted,
            "depth {depth}"
        );
    }
    // Skipped values are checked all the same: a number past `f64` in a
    // key nobody reads is still refused.
    assert!(Request::decode(br#"{"type":"stats","x":[1e999]}"#).is_err());
    assert!(Request::decode(br#"{"type":"stats","x":"\ud800"}"#).is_err());
    assert!(Request::decode(br#"{"type":"stats"} "#).is_ok());
    assert!(Request::decode(br#"{"type":"stats"}}"#).is_err());
}

#[test]
fn integers_are_exact_and_only_integers() {
    let poll = |from_seq: &str| {
        format!(r#"{{"type":"replicate_poll","from_seq":{from_seq},"max_frames":1,"wait_ms":0}}"#)
    };
    for mistyped in ["5.0", "5e0", "-0", "-5", "18446744073709551616", "\"5\""] {
        let body = poll(mistyped);
        assert_eq!(
            Request::decode(body.as_bytes()),
            Err("missing `from_seq`".to_string()),
            "{body}"
        );
    }
    assert!(Request::decode(poll("05").as_bytes()).is_err(), "not JSON");
    let max = Request::ReplicatePoll {
        from_seq: u64::MAX,
        max_frames: 1,
        wait_ms: 0,
    };
    let body = poll("18446744073709551615");
    assert_eq!(Request::decode(body.as_bytes()), Ok(max.clone()));
    assert_eq!(max.encode(), body);
    // Narrower integers are held to their own type.
    let hello = |version: &str| {
        Request::decode(format!(r#"{{"type":"hello","version":{version}}}"#).as_bytes())
    };
    assert_eq!(
        hello("4294967295"),
        Ok(Request::Hello { version: u32::MAX })
    );
    assert!(hello("4294967296").is_err());
}

/// A finite `f64` from 64 random bits, biased towards the shapes that
/// print differently: subnormals, signed zeros and plain integers.
fn finite(kind: u8, bits: u64) -> f64 {
    let x = match kind {
        0 => f64::from_bits(bits & 0x800f_ffff_ffff_ffff), // subnormal or ±0
        1 => f64::from_bits(bits & (1 << 63)),             // ±0
        2 => ((bits >> 1) % 10_000_000_000_000_000) as f64 * if bits & 1 == 0 { 1.0 } else { -1.0 },
        _ => f64::from_bits(bits),
    };
    if x.is_finite() {
        x
    } else {
        f64::from_bits(bits & !(1 << 62))
    }
}

fn any_finite() -> impl Strategy<Value = f64> {
    (0u8..5, 0u64..=u64::MAX).prop_map(|(kind, bits)| finite(kind, bits))
}

/// An integer of any length up to `u64::MAX`, each length about as
/// likely as the others.
fn any_int() -> impl Strategy<Value = u64> {
    (0u64..=u64::MAX, 0u32..64).prop_map(|(x, shift)| x >> shift)
}

fn any_ad() -> impl Strategy<Value = AdSnapshot> {
    let seed = any_int().prop_map(|x| x as u32);
    (
        any_int(),
        (any_finite(), any_finite(), any_finite()),
        proptest::collection::vec(seed, 0..40),
    )
        .prop_map(|(id, (budget, cpe, revenue_est), seeds)| AdSnapshot {
            id,
            budget,
            cpe,
            seeds,
            revenue_est,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn allocations_round_trip_to_the_bit(
        (epoch, kappa, total_rr_sets, engine_memory_bytes) in
            (any_int(), any_int(), any_int(), any_int()),
        (lambda, regret_estimate) in (any_finite(), any_finite()),
        ads in proptest::collection::vec(any_ad(), 0..6),
    ) {
        let snap = AllocationSnapshot {
            epoch,
            kappa: kappa as u32,
            lambda,
            ads,
            regret_estimate,
            total_rr_sets: total_rr_sets as usize,
            engine_memory_bytes: engine_memory_bytes as usize,
            stats: Default::default(),
        };
        let text = Response::Allocation(snap.clone()).encode();
        match Response::decode(text.as_bytes()) {
            Ok(Response::Allocation(back)) => {
                prop_assert!(back.same_allocation(&snap), "{text:.300}");
                prop_assert_eq!(back.total_rr_sets, snap.total_rr_sets);
                prop_assert_eq!(back.engine_memory_bytes, snap.engine_memory_bytes);
            }
            other => panic!("{other:?} from {text:.300}"),
        }
    }
}
