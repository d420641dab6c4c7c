//! The serving layer's event vocabulary.
//!
//! A campaign's lifecycle against a long-lived host (§1 of the paper:
//! advertisers "enter into an agreement with the host", budgets are spent
//! and replenished, campaigns end) is modelled as a deterministic stream
//! of five event types. Replaying a stream through an
//! [`crate::OnlineAllocator`] must land on the same allocation as running
//! batch TIRM on whatever ad set is live at that point — events change
//! *when* work happens, never *what* the answer is.

use tirm_topics::TopicDist;

/// Stable advertiser identity. Ids outlive arrival order: a departed ad
/// that re-arrives under the same id reclaims its cached RR-index shard,
/// and the per-ad RNG streams are derived from the id so allocations
/// never depend on how arrivals and departures reshuffled indices.
pub type AdId = u64;

/// One event of the serving stream.
#[derive(Clone, Debug, PartialEq)]
pub enum OnlineEvent {
    /// A new campaign arrives with a fresh budget.
    AdArrival {
        /// Stable advertiser id (must not currently be live).
        id: AdId,
        /// Campaign budget `B_i`.
        budget: f64,
        /// Cost-per-engagement `cpe(i)`.
        cpe: f64,
        /// Topic distribution `γ_i` (drives the projected arc
        /// probabilities the ad's RR sets are sampled under).
        topics: TopicDist,
        /// Click-through probability `δ(·, i)`, uniform over users.
        ctp: f32,
    },
    /// A live campaign's budget is replenished.
    BudgetTopUp {
        /// Live advertiser id.
        id: AdId,
        /// Amount added to the budget (≥ 0).
        amount: f64,
    },
    /// A live campaign ends; its seeds are withdrawn and its RR-index
    /// shard is released back to the retained pool.
    AdDeparture {
        /// Live advertiser id.
        id: AdId,
    },
    /// Cuts the batch: reconciles everything applied before it now,
    /// rather than at the end of the batch. Changes no allocation bit.
    Reallocate,
    /// Reports the allocator's current regret estimate; changes nothing.
    RegretQuery,
}

impl OnlineEvent {
    /// The event's kind tag (latency histograms key on it).
    pub fn kind(&self) -> EventKind {
        match self {
            OnlineEvent::AdArrival { .. } => EventKind::Arrival,
            OnlineEvent::BudgetTopUp { .. } => EventKind::TopUp,
            OnlineEvent::AdDeparture { .. } => EventKind::Departure,
            OnlineEvent::Reallocate => EventKind::Reallocate,
            OnlineEvent::RegretQuery => EventKind::RegretQuery,
        }
    }

    /// Whether the event changes allocator state. Mutations are what a
    /// serving frontend WAL-logs, counts toward its durable frontier,
    /// and replicates to followers; a `RegretQuery` is a pure read and
    /// is none of those.
    pub fn is_mutation(&self) -> bool {
        self.kind().is_mutation()
    }
}

/// Kind tag of an [`OnlineEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// `AdArrival`.
    Arrival,
    /// `BudgetTopUp`.
    TopUp,
    /// `AdDeparture`.
    Departure,
    /// `Reallocate`.
    Reallocate,
    /// `RegretQuery`.
    RegretQuery,
}

impl EventKind {
    /// Every kind, in stream-vocabulary order.
    pub const ALL: [EventKind; 5] = [
        EventKind::Arrival,
        EventKind::TopUp,
        EventKind::Departure,
        EventKind::Reallocate,
        EventKind::RegretQuery,
    ];

    /// Name used in event logs and latency tables.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Arrival => "arrival",
            EventKind::TopUp => "topup",
            EventKind::Departure => "departure",
            EventKind::Reallocate => "reallocate",
            EventKind::RegretQuery => "regret_query",
        }
    }

    /// Parses a log-file kind name.
    pub fn parse(s: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether events of this kind change allocator state (see
    /// [`OnlineEvent::is_mutation`]).
    pub fn is_mutation(self) -> bool {
        !matches!(self, EventKind::RegretQuery)
    }
}

/// What processing one event did.
#[derive(Clone, Debug, PartialEq)]
pub struct EventOutcome {
    /// Kind of the processed event.
    pub kind: EventKind,
    /// The standing allocation changed (or was rebuilt).
    pub reallocated: bool,
    /// The reconciliation that covered this event left every user below
    /// their attention bound κ ([`crate::OnlineStats::delta_reallocations`]):
    /// with a contention-free allocation before it too, no ad went live
    /// but the ones its batch changed. True when nothing reconciled.
    pub fast_path: bool,
    /// The regret estimate, for `RegretQuery` events.
    pub regret: Option<f64>,
    /// Fresh RR sets sampled while processing this event (0 when the
    /// warm index covered everything).
    pub fresh_rr_sets: usize,
}

/// Rejection reasons for invalid events.
#[derive(Clone, Debug, PartialEq)]
pub enum OnlineError {
    /// `AdArrival` for an id that is already live.
    DuplicateAd(AdId),
    /// `BudgetTopUp` / `AdDeparture` for an id that is not live.
    UnknownAd(AdId),
    /// Malformed payload (negative budget/top-up, CTP outside `[0, 1]`,
    /// topic space mismatch).
    BadEvent(String),
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::DuplicateAd(id) => write!(f, "ad {id} is already live"),
            OnlineError::UnknownAd(id) => write!(f, "ad {id} is not live"),
            OnlineError::BadEvent(why) => write!(f, "bad event: {why}"),
        }
    }
}

impl std::error::Error for OnlineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_names() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::parse(k.name()), Some(k));
        }
        assert_eq!(EventKind::parse("bogus"), None);
    }

    #[test]
    fn event_kind_tags() {
        let e = OnlineEvent::AdArrival {
            id: 1,
            budget: 5.0,
            cpe: 1.0,
            topics: TopicDist::single(1, 0),
            ctp: 1.0,
        };
        assert_eq!(e.kind(), EventKind::Arrival);
        assert_eq!(OnlineEvent::Reallocate.kind(), EventKind::Reallocate);
        assert_eq!(
            OnlineEvent::AdDeparture { id: 3 }.kind().name(),
            "departure"
        );
    }

    #[test]
    fn errors_display() {
        assert!(OnlineError::DuplicateAd(7).to_string().contains('7'));
        assert!(OnlineError::UnknownAd(9).to_string().contains("not live"));
        assert!(OnlineError::BadEvent("x".into()).to_string().contains('x'));
    }
}
