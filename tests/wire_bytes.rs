//! The wire format in the root gate: one instance of every `Request`
//! and `Response` variant next to the **literal** frame body it has on
//! the wire. The literals were captured from the hand-written codec
//! the `wire!` tables replaced, so a passing run is the byte-identity
//! proof of that replacement, and any later change to a tag, a key, the
//! key order or the float printing fails here — that is a
//! `PROTOCOL_VERSION` bump, not a refactor.
//!
//! The round-trip lists in `crates/wire` check `decode(encode(x)) == x`;
//! this file pins what the bytes in between are.

use std::collections::HashSet;
use std::mem::discriminant;
use tirm::online::{AdSnapshot, AllocationSnapshot, OnlineEvent};
use tirm::server::protocol::{Request, Response, Role, StatsView};
use tirm::topics::TopicDist;

// The pairs live with the wire crate, whose hostile-input test edits the
// same literals.
#[path = "../crates/wire/tests/corpus/mod.rs"]
mod corpus;
use corpus::{requests, responses};

#[test]
fn every_request_has_its_literal_bytes() {
    for (req, literal) in requests() {
        assert_eq!(req.encode(), literal, "encode({req:?})");
        assert_eq!(Request::decode(literal.as_bytes()), Ok(req), "{literal}");
    }
}

#[test]
fn every_response_has_its_literal_bytes() {
    for (resp, literal) in responses() {
        assert_eq!(resp.encode(), literal, "encode({resp:?})");
        assert_eq!(Response::decode(literal.as_bytes()), Ok(resp), "{literal}");
    }
}

#[test]
fn every_variant_is_on_the_lists() {
    // 12 requests and 16 responses: a new variant lands here with its
    // literal, or this count says it did not.
    let requests: HashSet<_> = requests().iter().map(|(r, _)| discriminant(r)).collect();
    assert_eq!(requests.len(), 12);
    let responses: HashSet<_> = responses().iter().map(|(r, _)| discriminant(r)).collect();
    assert_eq!(responses.len(), 16);
}
