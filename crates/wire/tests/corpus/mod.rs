//! One instance of every `Request` and `Response` variant next to the
//! **literal** frame body it has on the wire — the one corpus of valid
//! frames. The root gate (`tests/wire_bytes.rs`) asserts the pairs,
//! `hostile_input.rs` edits the literals. The includer names the types
//! (the root crate reaches them as `tirm::server::protocol`, this crate's
//! tests as `tirm_wire`), so the file itself imports from `super`.

use super::{
    AdSnapshot, AllocationSnapshot, OnlineEvent, Request, Response, Role, StatsView, TopicDist,
};

pub fn requests() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::Hello { version: 5 },
            r#"{"type":"hello","version":5}"#,
        ),
        (
            Request::Mutate(OnlineEvent::AdArrival {
                id: 7,
                budget: 12.5,
                cpe: 1.25,
                topics: TopicDist::concentrated(4, 1, 0.91),
                ctp: 0.03,
            }),
            r#"{"type":"arrival","id":7,"budget":12.5,"cpe":1.25,"k":4,"topic":1,"mass":0.91,"ctp":0.03}"#,
        ),
        (
            Request::Mutate(OnlineEvent::AdArrival {
                id: 8,
                budget: 3.0,
                cpe: 0.5,
                topics: TopicDist::new(vec![0.5, 0.3, 0.2]).unwrap(),
                ctp: 1.0,
            }),
            r#"{"type":"arrival","id":8,"budget":3,"cpe":0.5,"weights":[0.5,0.3,0.2],"ctp":1}"#,
        ),
        (
            Request::Mutate(OnlineEvent::BudgetTopUp { id: 3, amount: 2.5 }),
            r#"{"type":"topup","id":3,"amount":2.5}"#,
        ),
        (
            Request::Mutate(OnlineEvent::AdDeparture { id: 3 }),
            r#"{"type":"departure","id":3}"#,
        ),
        (
            Request::Mutate(OnlineEvent::Reallocate),
            r#"{"type":"reallocate"}"#,
        ),
        (Request::RegretQuery, r#"{"type":"regret_query"}"#),
        (Request::AllocationQuery, r#"{"type":"allocation"}"#),
        (Request::AdQuery { id: 9 }, r#"{"type":"ad","id":9}"#),
        (Request::Stats, r#"{"type":"stats"}"#),
        (Request::Metrics, r#"{"type":"metrics"}"#),
        (Request::TraceDump, r#"{"type":"trace_dump"}"#),
        (Request::Shutdown, r#"{"type":"shutdown"}"#),
        (
            Request::ReplicatePoll {
                from_seq: 42,
                max_frames: 256,
                wait_ms: 10,
            },
            r#"{"type":"replicate_poll","from_seq":42,"max_frames":256,"wait_ms":10}"#,
        ),
        // A hold past 2⁵³ ms; the leader clamps it.
        (
            Request::ReplicatePoll {
                from_seq: 0,
                max_frames: 1,
                wait_ms: 8_999_999_999_999_999,
            },
            r#"{"type":"replicate_poll","from_seq":0,"max_frames":1,"wait_ms":8999999999999999}"#,
        ),
        // Integers are exact up to `u64::MAX`.
        (
            Request::ReplicatePoll {
                from_seq: u64::MAX,
                max_frames: 1,
                wait_ms: u64::MAX,
            },
            concat!(
                r#"{"type":"replicate_poll","from_seq":18446744073709551615,"max_frames":1,"#,
                r#""wait_ms":18446744073709551615}"#,
            ),
        ),
        (
            Request::ReplicateCheckpoint {
                offset: 1 << 20,
                max_bytes: 65536,
            },
            r#"{"type":"replicate_checkpoint","offset":1048576,"max_bytes":65536}"#,
        ),
        (
            Request::ReplicateCheckpoint {
                offset: u64::MAX,
                max_bytes: 65536,
            },
            r#"{"type":"replicate_checkpoint","offset":18446744073709551615,"max_bytes":65536}"#,
        ),
        (Request::Promote, r#"{"type":"promote"}"#),
    ]
}

fn snapshot() -> AllocationSnapshot {
    AllocationSnapshot {
        epoch: 5,
        kappa: 2,
        lambda: 0.1 + 0.2, // no short decimal form
        ads: vec![
            AdSnapshot {
                id: 7,
                budget: 12.5,
                cpe: 1.0 / 3.0,
                seeds: vec![3, 1, 4],
                revenue_est: 11.0625,
            },
            AdSnapshot {
                id: 2,
                budget: 3.0,
                cpe: 2.0,
                seeds: vec![],
                revenue_est: 0.0,
            },
        ],
        regret_estimate: 1.4375,
        total_rr_sets: 1000,
        engine_memory_bytes: 4096,
        stats: Default::default(),
    }
}

pub fn responses() -> Vec<(Response, &'static str)> {
    let snap = snapshot();
    vec![
        (
            Response::Hello {
                version: 5,
                epoch: 12,
                wal_seq: 9,
                role: Role::Follower,
                fencing_epoch: 3,
            },
            r#"{"type":"hello","version":5,"epoch":12,"wal_seq":9,"role":"follower","fencing_epoch":3}"#,
        ),
        (
            Response::Accepted {
                epoch: 4,
                queue_depth: 2,
            },
            r#"{"type":"accepted","epoch":4,"queue_depth":2}"#,
        ),
        (
            Response::Overloaded { queue_depth: 64 },
            r#"{"type":"overloaded","queue_depth":64}"#,
        ),
        (Response::ShuttingDown, r#"{"type":"shutting_down"}"#),
        (
            Response::Rejected {
                why: "bad \"quote\", back\\slash, tab\t and\nnewline: missing `id`".to_string(),
            },
            r#"{"type":"rejected","why":"bad \"quote\", back\\slash, tab\t and\nnewline: missing `id`"}"#,
        ),
        (
            Response::Regret {
                epoch: 5,
                live_ads: 1,
                regret_estimate: std::f64::consts::PI,
            },
            r#"{"type":"regret","epoch":5,"live_ads":1,"regret_estimate":3.141592653589793}"#,
        ),
        (
            Response::Allocation(snap.clone()),
            concat!(
                r#"{"type":"allocation","snapshot":{"epoch":5,"kappa":2,"#,
                r#""lambda":0.30000000000000004,"regret_estimate":1.4375,"#,
                r#""total_rr_sets":1000,"total_seeds":3,"engine_memory_bytes":4096,"ads":["#,
                r#"{"id":7,"budget":12.5,"cpe":0.3333333333333333,"revenue_est":11.0625,"seeds":[3,1,4]},"#,
                r#"{"id":2,"budget":3,"cpe":2,"revenue_est":0,"seeds":[]}]}}"#,
            ),
        ),
        (
            Response::Ad {
                epoch: 5,
                ad: Some(snap.ads[0].clone()),
            },
            concat!(
                r#"{"type":"ad","epoch":5,"ad":{"id":7,"budget":12.5,"#,
                r#""cpe":0.3333333333333333,"revenue_est":11.0625,"seeds":[3,1,4]}}"#,
            ),
        ),
        (
            Response::Ad { epoch: 5, ad: None },
            r#"{"type":"ad","epoch":5,"ad":null}"#,
        ),
        (
            Response::Stats(StatsView {
                epoch: 5,
                wal_seq: 4,
                live_ads: 1,
                total_seeds: 3,
                total_rr_sets: 1000,
                engine_memory_bytes: 4096,
                queue_depth: 1,
                max_queue_depth: 7,
                accepted: 40,
                shed: 2,
                rejected: 1,
                bad_requests: 3,
                connections: 5,
                role: Role::Leader,
                fencing_epoch: 2,
                leader_seq: 11,
                shed_total: 6,
                rejected_total: 8,
            }),
            concat!(
                r#"{"type":"stats","epoch":5,"wal_seq":4,"live_ads":1,"total_seeds":3,"#,
                r#""total_rr_sets":1000,"engine_memory_bytes":4096,"queue_depth":1,"#,
                r#""max_queue_depth":7,"accepted":40,"shed":2,"rejected":1,"bad_requests":3,"#,
                r#""connections":5,"role":"leader","fencing_epoch":2,"leader_seq":11,"#,
                r#""shed_total":6,"rejected_total":8}"#,
            ),
        ),
        (
            Response::Metrics {
                json: r#"{"counters":{"tirm_server_shed_total":2},"gauges":{},"histograms":{}}"#
                    .to_string(),
            },
            concat!(
                r#"{"type":"metrics","metrics":{"counters":{"tirm_server_shed_total":2},"#,
                r#""gauges":{},"histograms":{}}}"#,
            ),
        ),
        (
            Response::TraceDump {
                json: concat!(
                    r#"{"traceEvents":[{"name":"apply","cat":"lineage","ph":"X","ts":1.5,"#,
                    r#""dur":2.25,"pid":1,"tid":0,"args":{"trace":41}}],"displayTimeUnit":"ns"}"#,
                )
                .to_string(),
            },
            concat!(
                r#"{"type":"trace_dump","trace":{"traceEvents":[{"name":"apply","#,
                r#""cat":"lineage","ph":"X","ts":1.5,"dur":2.25,"pid":1,"tid":0,"#,
                r#""args":{"trace":41}}],"displayTimeUnit":"ns"}}"#,
            ),
        ),
        (
            Response::ReplicateFrames {
                fencing_epoch: 1,
                start_seq: 40,
                durable_seq: 44,
                trace_base: 41,
                frames: vec![
                    r#"{"type":"topup","id":3,"amount":2.5}"#.to_string(),
                    r#"{"type":"departure","id":3}"#.to_string(),
                ],
            },
            concat!(
                r#"{"type":"replicate_frames","fencing_epoch":1,"start_seq":40,"#,
                r#""durable_seq":44,"trace_base":41,"frames":["#,
                r#"{"type":"topup","id":3,"amount":2.5},{"type":"departure","id":3}]}"#,
            ),
        ),
        (
            Response::ReplicateFrames {
                fencing_epoch: 0,
                start_seq: 44,
                durable_seq: 44,
                trace_base: 45,
                frames: vec![],
            },
            concat!(
                r#"{"type":"replicate_frames","fencing_epoch":0,"start_seq":44,"#,
                r#""durable_seq":44,"trace_base":45,"frames":[]}"#,
            ),
        ),
        (
            Response::ReplicateBootstrap {
                fencing_epoch: 2,
                checkpoint_seq: 128,
                total_bytes: 9000,
            },
            r#"{"type":"replicate_bootstrap","fencing_epoch":2,"checkpoint_seq":128,"total_bytes":9000}"#,
        ),
        (
            Response::ReplicateCheckpointChunk {
                checkpoint_seq: 128,
                offset: 4096,
                total_bytes: 9000,
                data_hex: "deadbeef".to_string(),
            },
            concat!(
                r#"{"type":"replicate_checkpoint_chunk","checkpoint_seq":128,"offset":4096,"#,
                r#""total_bytes":9000,"data_hex":"deadbeef"}"#,
            ),
        ),
        (
            Response::NotLeader {
                leader: "127.0.0.1:7401".to_string(),
            },
            r#"{"type":"not_leader","leader":"127.0.0.1:7401"}"#,
        ),
        (
            Response::Promoting { fencing_epoch: 4 },
            r#"{"type":"promoting","fencing_epoch":4}"#,
        ),
    ]
}
