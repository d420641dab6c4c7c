//! Hostile input on the wire (ROADMAP 4a, the wire slice): whatever a
//! peer sends, `Request::decode`, `Response::decode` and `read_frame`
//! answer `Ok` or a typed `Err` — they never panic, and a length prefix
//! never makes `read_frame` allocate more than [`MAX_FRAME_BYTES`].
//!
//! And whatever they accept decodes to the same value again once
//! re-encoded, because that re-encoding is what the server logs and ships.
//!
//! Inputs are (i) arbitrary bytes, (ii) the valid frames of `corpus`
//! (every message; the literals the root gate pins) with one to four
//! bytes replaced, inserted or deleted, and (iii) the few shapes random
//! edits cannot reach: nesting deep enough to overflow a recursive
//! parser's stack, a topic count that asks for petabytes, frames whose
//! re-encoding the decoder would refuse, and length prefixes at and past
//! the cap. Both decoders run one generic path per message table, so one
//! test covers all 28.

use proptest::prelude::*;
use std::io::Read;
use tirm_online::{AdSnapshot, AllocationSnapshot, OnlineEvent};
use tirm_topics::TopicDist;
use tirm_wire::{read_frame, write_frame, Request, Response, Role, StatsView, MAX_FRAME_BYTES};

mod corpus;

/// A peer's byte stream. The buffer `read_frame` offers for a frame body
/// is what it allocated on the length prefix's word, so one larger than
/// the cap fails the test here.
struct Peer<'a>(&'a [u8]);

impl Read for Peer<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        assert!(
            buf.len() <= MAX_FRAME_BYTES,
            "read_frame allocated {} bytes for one frame",
            buf.len()
        );
        self.0.read(buf)
    }
}

/// Runs every entry point over `bytes`: as a frame body through both
/// decoders, and as a peer's stream. What decodes must decode to the
/// same value again once re-encoded: the server logs and ships the
/// re-encoding of a mutation, not the peer's bytes, so a frame that gets
/// in but not back out would end replay for every event behind it.
fn probe(bytes: &[u8]) {
    if let Ok(request) = Request::decode(bytes) {
        assert_eq!(Request::decode(request.encode().as_bytes()), Ok(request));
    }
    if let Ok(response) = Response::decode(bytes) {
        assert_eq!(Response::decode(response.encode().as_bytes()), Ok(response));
    }
    let mut peer = Peer(bytes);
    while let Ok(Some(body)) = read_frame(&mut peer) {
        assert!(body.len() <= MAX_FRAME_BYTES);
    }
}

/// The bytes a peer would send for `body`: length prefix, then body.
fn framed(body: &str) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, body.as_bytes()).expect("writing to a Vec");
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_get_a_typed_answer(
        bytes in proptest::collection::vec(0u8..=255, 0..300),
    ) {
        probe(&bytes);
    }

    #[test]
    fn mutated_frames_get_a_typed_answer(
        pick in 0usize..1 << 16,
        edits in proptest::collection::vec((0u8..3, 0usize..1 << 16, 0u8..=255), 1..=4),
    ) {
        // The frame is valid before it is edited, or the edits prove
        // nothing.
        let (requests, responses) = (corpus::requests(), corpus::responses());
        let pick = pick % (requests.len() + responses.len());
        let body = match requests.get(pick) {
            Some((request, body)) => {
                prop_assert_eq!(&Request::decode(body.as_bytes()), &Ok(request.clone()));
                body
            }
            None => {
                let (response, body) = &responses[pick - requests.len()];
                prop_assert_eq!(&Response::decode(body.as_bytes()), &Ok(response.clone()));
                body
            }
        };
        let mut frame = framed(body);
        for (edit, at, byte) in edits {
            let len = frame.len();
            match edit {
                0 if len > 0 => frame[at % len] = byte,
                1 => frame.insert(at % (len + 1), byte),
                2 if len > 0 => drop(frame.remove(at % len)),
                _ => {}
            }
        }
        // Edits to the prefix are the stream's problem, edits to the
        // body the decoders'.
        probe(&frame);
        probe(frame.get(4..).unwrap_or_default());
    }
}

#[test]
fn inputs_random_edits_do_not_reach_get_a_typed_answer() {
    // Nesting that would overflow the stack of a recursive parser.
    for open in ["[", "{\"type\":"] {
        let deep = open.repeat(1_000_000);
        assert!(Request::decode(deep.as_bytes()).is_err());
        assert!(Response::decode(deep.as_bytes()).is_err());
    }
    let nested_frame = format!(
        "{{\"type\":\"replicate_frames\",\"fencing_epoch\":0,\"start_seq\":0,\
         \"durable_seq\":0,\"trace_base\":1,\"frames\":[{}]}}",
        "{\"a\":".repeat(200_000)
    );
    assert!(Response::decode(nested_frame.as_bytes()).is_err());

    let arrival = |budget: &str, topics: &str, ctp: &str| {
        format!(
            "{{\"type\":\"arrival\",\"id\":1,\"budget\":{budget},\"cpe\":1,{topics},\"ctp\":{ctp}}}"
        )
    };
    let one_topic = "\"k\":1,\"topic\":0,\"mass\":1";
    let point_mass = |k: usize| format!("\"weights\":[1{}]", ",0".repeat(k - 1));
    let refused = [
        // A compact topic distribution standing for 8·10¹⁵ weights.
        arrival("1", "\"k\":8000000000000000,\"topic\":0,\"mass\":1", "1"),
        // Frames that would get in but not back out: a point-mass
        // `weights` vector is written back in the compact form, so it is
        // held to that form's bound; 29 999 equal shares written back as
        // `weights` do not sum to 1 in `f32`; a number past `f64`, or
        // past `f32` where the field is one, would be written as `inf`.
        arrival("1", &point_mass((1 << 16) + 1), "1"),
        arrival("1", "\"k\":30000,\"topic\":0,\"mass\":0", "1"),
        arrival("1e999", one_topic, "1"),
        arrival("1", one_topic, "1e300"),
    ];
    for body in refused {
        assert!(Request::decode(body.as_bytes()).is_err(), "{body:.120}");
    }
    // Their neighbours get in, and back out (`probe` checks that).
    for body in [
        arrival("1", &point_mass(1 << 16), "1"),
        arrival("1e300", one_topic, "1e-300"),
    ] {
        assert!(Request::decode(body.as_bytes()).is_ok(), "{body:.120}");
        probe(body.as_bytes());
    }

    // Length prefixes that lie: past the cap nothing is allocated (the
    // `Peer` would see the buffer), at the cap the frame is merely
    // truncated.
    for announced in [MAX_FRAME_BYTES as u32 + 1, u32::MAX] {
        let mut stream = announced.to_le_bytes().to_vec();
        stream.extend_from_slice(b"{}");
        let err = read_frame(&mut Peer(&stream)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
    let mut stream = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
    stream.extend_from_slice(b"{}");
    let err = read_frame(&mut Peer(&stream)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}
