//! Immutable point-in-time views of an allocator's standing allocation.
//!
//! An [`AllocationSnapshot`] is the read-model of the serving layer: the
//! writer that owns the [`crate::OnlineAllocator`] extracts one after
//! every applied batch of events and publishes it; any number of readers
//! then answer allocation/regret/stats queries from the snapshot without
//! ever touching the allocator. Snapshots are plain owned data (no
//! borrows into the allocator, no interior mutability), so sharing them
//! across threads behind an `Arc` is sound by construction.
//!
//! The **epoch** stamps lineage: it counts the mutating events
//! (`AdArrival` / `BudgetTopUp` / `AdDeparture` / `Reallocate`) the
//! allocator has applied, so two replays of the same event log land on
//! snapshots with equal epochs — and [`AllocationSnapshot::same_allocation`]
//! checks the rest of the bit-identity contract (seed sets *and* revenue
//! estimates, compared on f64 bits).

use crate::allocator::OnlineStats;
use crate::events::AdId;
use std::fmt::Write as _;
use std::sync::Arc;
use tirm_graph::NodeId;

/// One live campaign's slice of a snapshot, arrival order.
#[derive(Clone, Debug, PartialEq)]
pub struct AdSnapshot {
    /// Stable advertiser id.
    pub id: AdId,
    /// Budget `B_i` including every applied top-up.
    pub budget: f64,
    /// Cost per engagement.
    pub cpe: f64,
    /// Standing seed set `S_i`, selection order.
    pub seeds: Vec<NodeId>,
    /// The engine's revenue estimate `Π̂_i(S_i)` from the last
    /// reconciliation.
    pub revenue_est: f64,
}

/// An immutable view of the standing allocation plus the serving
/// telemetry a read path needs — everything a query can be answered from
/// without the allocator.
#[derive(Clone, Debug, PartialEq)]
pub struct AllocationSnapshot {
    /// Mutating events applied when this snapshot was taken (queries
    /// never bump it).
    pub epoch: u64,
    /// Attention bound κ the allocator runs under.
    pub kappa: u32,
    /// Seed-set penalty λ.
    pub lambda: f64,
    /// Live campaigns in arrival order — the ad order batch TIRM sees.
    pub ads: Vec<AdSnapshot>,
    /// Engine regret estimate `Σ_i |B_i − Π̂_i| + λ|S_i|`.
    pub regret_estimate: f64,
    /// RR sets held across all live shards (θ summed over ads).
    pub total_rr_sets: usize,
    /// Exact bytes of the allocator's index + satellite capital when the
    /// snapshot was taken (*not* the snapshot's own size — see
    /// [`Self::memory_bytes`]).
    pub engine_memory_bytes: usize,
    /// Allocator lifetime counters at snapshot time.
    pub stats: OnlineStats,
}

impl AllocationSnapshot {
    /// The snapshot of a freshly constructed allocator (epoch 0, no ads)
    /// — what a serving loop publishes before the first event lands.
    pub fn empty(kappa: u32, lambda: f64) -> Arc<AllocationSnapshot> {
        Arc::new(AllocationSnapshot {
            epoch: 0,
            kappa,
            lambda,
            ads: Vec::new(),
            regret_estimate: 0.0,
            total_rr_sets: 0,
            engine_memory_bytes: 0,
            stats: OnlineStats::default(),
        })
    }

    /// Number of live campaigns.
    pub fn num_ads(&self) -> usize {
        self.ads.len()
    }

    /// Seeds allocated in total.
    pub fn total_seeds(&self) -> usize {
        self.ads.iter().map(|a| a.seeds.len()).sum()
    }

    /// The slice of ad `id`, if live.
    pub fn ad(&self, id: AdId) -> Option<&AdSnapshot> {
        self.ads.iter().find(|a| a.id == id)
    }

    /// Exact bytes this snapshot itself occupies — the struct, the ad
    /// table, and every seed vector. This is the publication cost a
    /// snapshot-swapped read path pays per published batch, and what a
    /// bounded snapshot history would budget on.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.ads.capacity() * std::mem::size_of::<AdSnapshot>()
            + self
                .ads
                .iter()
                .map(|a| a.seeds.capacity() * std::mem::size_of::<NodeId>())
                .sum::<usize>()
    }

    /// Bit-identity of the allocation payload: same epoch, same live ads
    /// in the same order, each with bit-equal budgets, seed sets and
    /// revenue estimates (f64s compared on bits — `==` would conflate
    /// `0.0`/`-0.0` and choke on NaN). Lifetime counters and memory
    /// telemetry are *excluded*: a served replay answers queries without
    /// the allocator, so its event counters legitimately differ from an
    /// in-process replay of the same log.
    pub fn same_allocation(&self, other: &AllocationSnapshot) -> bool {
        self.epoch == other.epoch
            && self.kappa == other.kappa
            && self.lambda.to_bits() == other.lambda.to_bits()
            && self.regret_estimate.to_bits() == other.regret_estimate.to_bits()
            && self.ads.len() == other.ads.len()
            && self.ads.iter().zip(&other.ads).all(|(a, b)| {
                a.id == b.id
                    && a.budget.to_bits() == b.budget.to_bits()
                    && a.cpe.to_bits() == b.cpe.to_bits()
                    && a.seeds == b.seeds
                    && a.revenue_est.to_bits() == b.revenue_est.to_bits()
            })
    }

    /// Renders the snapshot as a single JSON object (floats in shortest
    /// round-trip notation, like the event-log format). This is what
    /// `online_replay --dump-final` writes.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends [`Self::to_json`]'s text to `out` — what the wire
    /// protocol's allocation responses embed. Every number is written
    /// straight into `out`: no string per ad or per seed.
    pub fn write_json(&self, out: &mut String) {
        write!(
            out,
            "{{\"epoch\":{},\"kappa\":{},\"lambda\":{},\"regret_estimate\":{},\
             \"total_rr_sets\":{},\"total_seeds\":{},\"engine_memory_bytes\":{},\"ads\":[",
            self.epoch,
            self.kappa,
            self.lambda,
            self.regret_estimate,
            self.total_rr_sets,
            self.total_seeds(),
            self.engine_memory_bytes,
        )
        .expect("writing to a String is infallible");
        for (i, ad) in self.ads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            ad.write_json(out);
        }
        out.push_str("]}");
    }
}

impl AdSnapshot {
    /// Appends one ad's JSON object to `out` — the single source of the
    /// per-ad wire shape (embedded by [`AllocationSnapshot::write_json`]
    /// and by the server's `ad` query responses, so the two can never
    /// drift).
    pub fn write_json(&self, out: &mut String) {
        write!(
            out,
            "{{\"id\":{},\"budget\":{},\"cpe\":{},\"revenue_est\":{},\"seeds\":[",
            self.id, self.budget, self.cpe, self.revenue_est,
        )
        .expect("writing to a String is infallible");
        for (i, seed) in self.seeds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{seed}").expect("writing to a String is infallible");
        }
        out.push_str("]}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AllocationSnapshot {
        AllocationSnapshot {
            epoch: 3,
            kappa: 2,
            lambda: 0.5,
            ads: vec![
                AdSnapshot {
                    id: 7,
                    budget: 12.5,
                    cpe: 1.0,
                    seeds: vec![4, 9, 1],
                    revenue_est: 11.25,
                },
                AdSnapshot {
                    id: 2,
                    budget: 3.0,
                    cpe: 2.0,
                    seeds: vec![],
                    revenue_est: 0.0,
                },
            ],
            regret_estimate: 4.25,
            total_rr_sets: 1000,
            engine_memory_bytes: 4096,
            stats: OnlineStats::default(),
        }
    }

    #[test]
    fn accessors_and_accounting() {
        let s = sample();
        assert_eq!(s.num_ads(), 2);
        assert_eq!(s.total_seeds(), 3);
        assert_eq!(s.ad(7).unwrap().seeds, vec![4, 9, 1]);
        assert!(s.ad(99).is_none());
        let expected = std::mem::size_of::<AllocationSnapshot>()
            + s.ads.capacity() * std::mem::size_of::<AdSnapshot>()
            + s.ads[0].seeds.capacity() * 4
            + s.ads[1].seeds.capacity() * 4;
        assert_eq!(s.memory_bytes(), expected);
        let empty = AllocationSnapshot::empty(1, 0.0);
        assert_eq!(empty.epoch, 0);
        assert_eq!(
            empty.memory_bytes(),
            std::mem::size_of::<AllocationSnapshot>()
        );
    }

    #[test]
    fn same_allocation_is_bitwise_on_payload_only() {
        let a = sample();
        let mut b = sample();
        assert!(a.same_allocation(&b));
        // Telemetry differences are tolerated…
        b.stats.events = 99;
        b.engine_memory_bytes = 1;
        b.total_rr_sets = 5;
        assert!(a.same_allocation(&b));
        // …payload differences are not.
        let mut c = sample();
        c.ads[0].revenue_est = f64::from_bits(c.ads[0].revenue_est.to_bits() + 1);
        assert!(!a.same_allocation(&c));
        let mut d = sample();
        d.ads[1].seeds.push(5);
        assert!(!a.same_allocation(&d));
        let mut e = sample();
        e.epoch += 1;
        assert!(!a.same_allocation(&e));
    }

    #[test]
    fn json_shape() {
        let s = sample();
        let text = s.to_json();
        assert!(text.starts_with("{\"epoch\":3,"));
        assert!(text.contains("\"total_seeds\":3"));
        assert!(text.contains("\"seeds\":[4,9,1]"));
        assert!(text.contains("\"seeds\":[]"));
        // Valid JSON by the vendored parser's standards is checked at the
        // bench layer (this crate deliberately has no serde dependency);
        // here we pin balanced braces.
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "{text}"
        );
    }
}
