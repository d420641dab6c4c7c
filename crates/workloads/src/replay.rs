//! Replay driver: feeds an event log through an
//! [`OnlineAllocator`], recording per-event-type latency
//! histograms and end-to-end throughput.
//!
//! The driver processes events as fast as the engine allows (the log's
//! virtual timestamps are pacing metadata, not a schedule): the measured
//! events/s is the serving layer's capacity, and the per-kind latency
//! percentiles are what the `online` bench tier stamps into its artifact
//! cells.

use crate::events::LogEvent;
use std::time::Instant;
use tirm_obs::registry::RESUME_SKIPPED_STEPS;
use tirm_obs::SampleHistogram;
use tirm_online::{EventKind, OnlineAllocator, OnlineStats};

/// What a replay measured.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Events processed (accepted + rejected).
    pub events: usize,
    /// Events the engine rejected (invalid ids/payloads).
    pub rejected: usize,
    /// End-to-end wall-clock seconds.
    pub wall_s: f64,
    /// Accepted events per wall-clock second.
    pub events_per_s: f64,
    /// Latency histogram over all accepted events.
    pub overall: SampleHistogram,
    /// Per-kind histograms, [`EventKind::ALL`] order, kinds never seen
    /// included (empty histograms).
    pub per_kind: Vec<(EventKind, SampleHistogram)>,
    /// Engine regret estimate after the final event.
    pub final_regret_estimate: f64,
    /// Per kind, [`EventKind::ALL`] order: the commits the runs its
    /// events triggered took from the last run's record, and the commits
    /// those runs made.
    pub replayed_commits: Vec<(EventKind, u64, u64)>,
    /// Engine lifetime counters after the replay.
    pub stats: OnlineStats,
}

impl ReplayReport {
    /// The histogram of one kind.
    pub fn kind(&self, kind: EventKind) -> &SampleHistogram {
        &self
            .per_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("all kinds present")
            .1
    }
}

/// Replays `log` through `allocator`, measuring each `process` call.
/// Rejected events are counted and skipped (a serving layer logs and
/// moves on).
pub fn replay(allocator: &mut OnlineAllocator<'_>, log: &[LogEvent]) -> ReplayReport {
    let mut overall = SampleHistogram::default();
    let mut per_kind: Vec<(EventKind, SampleHistogram)> = EventKind::ALL
        .into_iter()
        .map(|k| (k, SampleHistogram::default()))
        .collect();
    let mut replayed_commits: Vec<(EventKind, u64, u64)> =
        EventKind::ALL.into_iter().map(|k| (k, 0, 0)).collect();
    let mut rejected = 0usize;
    let t0 = Instant::now();
    for e in log {
        let kind = e.event.kind();
        let replayed = RESUME_SKIPPED_STEPS.snapshot().sum;
        let t = Instant::now();
        let outcome = allocator.process(&e.event);
        let nanos = t.elapsed().as_nanos() as u64;
        match outcome {
            Ok(outcome) => {
                if outcome.reallocated {
                    let r = replayed_commits.iter_mut().find(|r| r.0 == kind);
                    let r = r.expect("all kinds present");
                    r.1 += RESUME_SKIPPED_STEPS.snapshot().sum - replayed;
                    r.2 += allocator.snapshot().total_seeds() as u64;
                }
                overall.record(nanos);
                per_kind
                    .iter_mut()
                    .find(|(k, _)| *k == kind)
                    .expect("all kinds present")
                    .1
                    .record(nanos);
            }
            Err(_) => rejected += 1,
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let accepted = log.len() - rejected;
    ReplayReport {
        events: log.len(),
        rejected,
        wall_s,
        events_per_s: if wall_s > 0.0 {
            accepted as f64 / wall_s
        } else {
            0.0
        },
        overall,
        per_kind,
        final_regret_estimate: allocator.regret_estimate(),
        replayed_commits,
        stats: allocator.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;
    use crate::events::EventStreamSpec;
    use tirm_core::TirmOptions;
    use tirm_graph::generators;
    use tirm_online::{OnlineConfig, OnlineEvent};
    use tirm_topics::genprob;

    #[test]
    fn replay_measures_and_counts() {
        let g = generators::preferential_attachment(200, 3, 0.3, 3);
        let probs = genprob::exponential_topic_probs(g.num_edges(), 10, 12.0, 5);
        let mut alloc = OnlineAllocator::new(
            &g,
            &probs,
            OnlineConfig {
                tirm: TirmOptions {
                    max_theta_per_ad: Some(5_000),
                    ..TirmOptions::default()
                },
                kappa: 2,
                ..OnlineConfig::default()
            },
        );
        let mut log = EventStreamSpec::for_dataset(DatasetKind::Epinions, 30, 9).generate(0.05);
        // One invalid event: the driver must count, not die.
        log.push(crate::events::LogEvent {
            at: 1e9,
            event: OnlineEvent::AdDeparture { id: 999_999 },
        });
        let report = replay(&mut alloc, &log);
        assert_eq!(report.events, 31);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.overall.count(), 30);
        assert!(report.events_per_s > 0.0);
        assert!(report.kind(EventKind::Arrival).count() > 0);
        let counted: usize = report.per_kind.iter().map(|(_, h)| h.count()).sum();
        assert_eq!(counted, 30);
        assert!(report.stats.events >= 31);
    }
}
