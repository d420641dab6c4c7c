//! The frame reader against an independent grammar and its own contract.
//!
//! Frames, event-log lines and `serde_json::from_str` are all read by one
//! strict pull reader, the vendored `serde_json::Reader`. The oracle for
//! its grammar is therefore not a parser of the workspace but `grammar`
//! below: an accept/refuse recognizer written from RFC 8259, with the
//! reader's three documented limits. On arbitrary bytes and on the valid
//! frames of `corpus` with one to four bytes replaced, inserted or deleted
//! (as `hostile_input.rs` edits them, but with half the new bytes drawn
//! from those JSON numbers and structure are made of), `from_str` admits
//! exactly what the recognizer admits, and both decoders refuse whatever
//! it refuses. On arbitrary bytes and the event bodies of `corpus`, edited
//! the same way, a log line is its frame body: the log reader admits
//! `{"at":0,` + body exactly when `Request::decode` admits the body as an
//! event, and reads the same event. The fixed cases pin the object rules (keys in any order, the
//! first occurrence wins, the nesting cap holds in skipped values) and the
//! integer rules (`u64::MAX` decodes; `5.0` is no integer). The round-trip
//! property covers the values an allocation carries that an `f64` tree
//! cannot: ids and epochs above 2⁵³, next to subnormals and `-0.0`.

use proptest::prelude::*;
use tirm_online::{AdSnapshot, AllocationSnapshot, OnlineEvent};
use tirm_topics::TopicDist;
use tirm_wire::{write_frame, Request, Response, Role, StatsView};
use tirm_workloads::events::log_from_jsonl;

mod corpus;

/// JSON texts as RFC 8259 (sections 2–8) defines them, plus the reader's
/// limits: arrays and objects nest at most 128 deep, a number must name a
/// finite `f64`, and a `\u` escape must name a scalar value on its own
/// (so no surrogate, paired or not). Each number is matched by the
/// grammar rules and then handed to `str::parse`: no fast path.
mod grammar {
    /// `ws = *( %x20 / %x09 / %x0A / %x0D )`.
    const WS: &[u8] = b" \t\n\r";
    const DIGIT: &[u8] = b"0123456789";
    const WORDS: [&str; 3] = ["true", "false", "null"];

    /// Whether `bytes` is one JSON text (`ws value ws`), in UTF-8.
    pub fn accepts(bytes: &[u8]) -> bool {
        std::str::from_utf8(bytes).is_ok_and(|text| {
            let mut g = Grammar(text, 0);
            g.value(0) && g.1 == text.len()
        })
    }

    /// The text and the position in it.
    struct Grammar<'a>(&'a str, usize);

    impl Grammar<'_> {
        fn next(&self) -> Option<&u8> {
            self.0.as_bytes().get(self.1)
        }

        /// Consumes the longest run of bytes in `set`; whether it is one.
        fn many(&mut self, set: &[u8]) -> bool {
            let start = self.1;
            while self.next().is_some_and(|b| set.contains(b)) {
                self.1 += 1;
            }
            self.1 > start
        }

        /// Consumes `b` if it is next.
        fn eat(&mut self, b: u8) -> bool {
            let hit = self.next() == Some(&b);
            self.1 += usize::from(hit);
            hit
        }

        /// `ws`, then `b` if it is next.
        fn token(&mut self, b: u8) -> bool {
            self.many(WS);
            self.eat(b)
        }

        /// `ws value ws`, inside `depth` arrays and objects.
        fn value(&mut self, depth: usize) -> bool {
            let member =
                |g: &mut Self| g.token(b'"') && g.chars() && g.token(b':') && g.value(depth + 1);
            let value = if self.token(b'{') {
                depth < 128 && self.items(b'}', member)
            } else if self.token(b'[') {
                depth < 128 && self.items(b']', |g| g.value(depth + 1))
            } else if self.eat(b'"') {
                self.chars()
            } else if matches!(self.next(), Some(b'-' | b'0'..=b'9')) {
                self.number()
            } else {
                let rest = &self.0[self.1..];
                let word = WORDS.into_iter().find(|word| rest.starts_with(word));
                self.1 += word.map_or(0, str::len);
                word.is_some()
            };
            self.many(WS);
            value
        }

        /// `[ item *( value-separator item ) ] end`, past the begin byte.
        fn items(&mut self, end: u8, mut item: impl FnMut(&mut Self) -> bool) -> bool {
            let mut first = true;
            while !self.token(end) {
                if !(std::mem::take(&mut first) || self.token(b',')) || !item(self) {
                    return false;
                }
            }
            true
        }

        /// `*char quotation-mark`: a string past its opening quote.
        fn chars(&mut self) -> bool {
            while let Some(&b) = self.next() {
                self.1 += 1;
                match b {
                    b'"' => return true,
                    b'\\' if self.eat(b'u') => {
                        let hex = self.0.get(self.1..self.1 + 4);
                        let hex = hex.filter(|hex| hex.bytes().all(|d| d.is_ascii_hexdigit()));
                        let unit = hex.and_then(|hex| u32::from_str_radix(hex, 16).ok());
                        if unit.and_then(char::from_u32).is_none() {
                            return false;
                        }
                        self.1 += 4;
                    }
                    b'\\' if self.next().is_some_and(|e| b"\"\\/bfnrt".contains(e)) => self.1 += 1,
                    b'\\' | 0..=0x1f => return false,
                    _ => {}
                }
            }
            false
        }

        /// `number = [ minus ] int [ frac ] [ exp ]`, naming a finite `f64`.
        fn number(&mut self) -> bool {
            let start = self.1;
            self.eat(b'-');
            // `int = zero / ( digit1-9 *DIGIT )`
            let int = self.eat(b'0') || self.many(DIGIT);
            // `frac = decimal-point 1*DIGIT`
            let frac = !self.eat(b'.') || self.many(DIGIT);
            // `exp = e [ minus / plus ] 1*DIGIT`
            let exp = !(self.eat(b'e') || self.eat(b'E')) || {
                let _sign = self.eat(b'+') || self.eat(b'-');
                self.many(DIGIT)
            };
            let token = &self.0[start..self.1];
            int && frac && exp && token.parse::<f64>().is_ok_and(f64::is_finite)
        }
    }
}

/// `from_str` admits exactly what the grammar admits, and both decoders
/// refuse whatever it refuses.
fn holds_to_the_grammar(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let accepted = grammar::accepts(bytes);
    if let Ok(utf8) = std::str::from_utf8(bytes) {
        assert_eq!(
            serde_json::from_str(utf8).is_ok(),
            accepted,
            "from_str on {text:.200}"
        );
    }
    if !accepted {
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

/// The log reader admits `{"at":0,` + the body past its `{` exactly when
/// `Request::decode` admits the body as an event (`regret_query` is
/// routed to the read path, as the wire does), and reads the same event.
/// A body that does not open with `{`, or spans lines, is no log line.
fn a_log_line_is_its_frame_body(body: &[u8]) {
    let Some(rest) = body.strip_prefix(b"{") else {
        return;
    };
    if body.contains(&b'\n') {
        return;
    }
    let frame = match Request::decode(body) {
        Ok(Request::Mutate(event)) => Some(event),
        Ok(Request::RegretQuery) => Some(OnlineEvent::RegretQuery),
        _ => None,
    };
    let line = [b"{\"at\":0,", rest].concat();
    let logged = match std::str::from_utf8(&line).map(log_from_jsonl) {
        Ok(Ok(log)) => {
            assert_eq!(log.len(), 1);
            assert_eq!(log[0].at, 0.0);
            Some(log[0].event.clone())
        }
        _ => None,
    };
    assert_eq!(logged, frame, "{:.200}", String::from_utf8_lossy(&line));
}

/// One to four bytes of `body` replaced, inserted or deleted. Half the
/// new bytes are the ones numbers and structure are made of, so edits
/// like `01`, `1.`, `-0` and `1e` are common.
fn edit(mut body: Vec<u8>, edits: Vec<(u8, usize, u16)>) -> Vec<u8> {
    const JSON_BYTES: &[u8] = b"0123456789.-+eE\",:{}[] ";
    for (edit, at, byte) in edits {
        let byte = match usize::from(byte).checked_sub(256) {
            Some(i) => JSON_BYTES[i % JSON_BYTES.len()],
            None => byte as u8,
        };
        let len = body.len();
        match edit {
            0 if len > 0 => body[at % len] = byte,
            1 => body.insert(at % (len + 1), byte),
            2 if len > 0 => drop(body.remove(at % len)),
            _ => {}
        }
    }
    body
}

fn edits() -> impl Strategy<Value = Vec<(u8, usize, u16)>> {
    proptest::collection::vec((0u8..3, 0usize..1 << 16, 0u16..512), 1..=4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_the_oracle_refuses_are_refused(
        bytes in proptest::collection::vec(0u8..=255, 0..300),
    ) {
        holds_to_the_grammar(&bytes);
        a_log_line_is_its_frame_body(&[b"{".as_slice(), &bytes].concat());
    }

    #[test]
    fn edited_frames_the_oracle_refuses_are_refused(
        pick in 0usize..1 << 16,
        edits in edits(),
    ) {
        let (requests, responses) = (corpus::requests(), corpus::responses());
        let pick = pick % (requests.len() + responses.len());
        let body = match requests.get(pick) {
            Some((_, body)) => body,
            None => &responses[pick - requests.len()].1,
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, body.as_bytes()).expect("writing to a Vec");
        let frame = edit(frame, edits);
        holds_to_the_grammar(&frame);
        holds_to_the_grammar(frame.get(4..).unwrap_or_default());
    }

    #[test]
    fn a_log_line_reads_as_its_mutation_frame(
        pick in 0usize..1 << 16,
        edits in edits(),
    ) {
        let events: Vec<_> = corpus::requests()
            .into_iter()
            .filter(|(request, _)| matches!(request, Request::Mutate(_) | Request::RegretQuery))
            .collect();
        let body = events[pick % events.len()].1.as_bytes().to_vec();
        a_log_line_is_its_frame_body(&body);
        a_log_line_is_its_frame_body(&edit(body, edits));
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
            grammar::accepts(body.as_bytes()),
            admitted,
            "grammar, depth {depth}"
        );
        assert_eq!(
            serde_json::from_str(&body).is_ok(),
            admitted,
            "from_str, depth {depth}"
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
