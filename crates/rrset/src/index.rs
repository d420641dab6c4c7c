//! The inverted RR index — flat set storage plus node → set-id postings.
//!
//! [`RrIndex`] is the storage substrate under the coverage overlay
//! ([`crate::WeightedRrCollection`]) and, since the online serving
//! layer, a *persistent* asset in its own right: the
//! `tirm_online` allocator keeps one `RrIndex` per ad alive across
//! arbitrarily many re-allocations, so the expensive part of TIRM — the
//! reverse-reachability sampling that fills the index — is paid once per
//! `(ad, θ)` and the cheap part (coverage overlays, lazy-greedy selection)
//! is rebuilt from the postings lists on demand.
//!
//! # Postings layout
//!
//! Postings are **not** one `Vec<u32>` per node (a 24-byte header plus a
//! private doubling buffer each — ~44% expected slack and a header tax
//! that dominates short lists). They live in two tiers:
//!
//! * a **frozen CSR** — one exact-fit flat array plus an `n+1` offset
//!   table holding every posting up to the last freeze: 4 bytes per
//!   posting, 4 bytes per node, zero slack;
//! * a **hot tail** — a chunked u32 bump arena for postings appended
//!   since: one shared buffer holds each node's recent ids as a
//!   contiguous run addressed by an 8-byte `{start, len}` head; a run
//!   that outgrows its ×1.5 size class (4, 6, 8, 12, 16, 24, …) is
//!   copied to the next class and the old block recycled through a
//!   per-class free list.
//!
//! When the hot tail outgrows half the frozen tier it is merged in
//! (geometric doubling ⇒ amortized O(1) slots moved per append), so at
//! any reporting point all but a bounded fraction of postings sit in the
//! exact-fit tier. Set ids are appended in ascending order, which makes
//! `frozen ++ hot` per node ascending too — prefix-bounded scans keep
//! their early exit.
//!
//! Invariants:
//!
//! * Sets are append-only and identified by dense ids `0..num_sets()` in
//!   insertion order.
//! * Postings lists are strictly ascending in set id across both tiers.
//! * Memory accounting ([`RrIndex::memory_bytes`]) is exact over the flat
//!   arrays, both postings tiers and the head table — the Table 4 metric
//!   and the online pool's eviction currency — and is O(1): capacities
//!   are read off the backing vectors, never recomputed by walking `n`
//!   lists.

use tirm_graph::NodeId;

/// Sentinel for "no block" in the per-class free lists.
const NIL: u32 = u32::MAX;

/// Per-node hot-tier head: `start` is an arena offset when `len ≥ 2`,
/// the single set id itself when `len == 1`, and unused when `len == 0`.
#[derive(Clone, Copy, Debug, Default)]
struct PostingHead {
    start: u32,
    len: u32,
}

/// Smallest size class that fits `len` elements (`len ≥ 1`).
/// Classes are 4, 6, 8, 12, 16, 24, 32, … — powers of two interleaved
/// with 3·2^k, i.e. ×1.5 geometric growth rounded to even sizes.
#[inline]
fn class_ceil(len: u32) -> u32 {
    if len <= 4 {
        return 4;
    }
    let p = len.next_power_of_two();
    let three_quarter = p / 2 + p / 4;
    if len <= three_quarter {
        three_quarter
    } else {
        p
    }
}

/// Dense index of a size class in the free-list table.
/// 4 → 0, 6 → 1, 8 → 2, 12 → 3, 16 → 4, 24 → 5, …
#[inline]
fn class_index(class: u32) -> usize {
    debug_assert!(class >= 4 && class_ceil(class) == class);
    let tz = class.trailing_zeros() as usize;
    if class.is_power_of_two() {
        2 * (tz - 2)
    } else {
        2 * (tz - 1) + 1
    }
}

/// A node's postings: the frozen exact-fit run followed by the hot-tail
/// run, together strictly ascending in set id.
#[derive(Clone, Copy, Debug)]
pub struct Postings<'a> {
    frozen: &'a [u32],
    hot: &'a [u32],
}

impl<'a> Postings<'a> {
    /// Total posting count.
    #[inline]
    pub fn len(&self) -> usize {
        self.frozen.len() + self.hot.len()
    }

    /// True when the node appears in no set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.frozen.is_empty() && self.hot.is_empty()
    }

    /// The two contiguous runs `(frozen, hot)` — each ascending, every
    /// frozen id smaller than every hot id. Hot loops that want plain
    /// slice traversals use this instead of the chained iterator.
    #[inline]
    pub fn as_slices(&self) -> (&'a [u32], &'a [u32]) {
        (self.frozen, self.hot)
    }
}

impl<'a> IntoIterator for Postings<'a> {
    type Item = u32;
    type IntoIter =
        std::iter::Copied<std::iter::Chain<std::slice::Iter<'a, u32>, std::slice::Iter<'a, u32>>>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.frozen.iter().chain(self.hot.iter()).copied()
    }
}

/// Flat RR-set storage with an inverted node → set-id index.
#[derive(Clone, Debug)]
pub struct RrIndex {
    n: usize,
    /// `offsets[i]..offsets[i+1]` delimits set `i` in `nodes`.
    offsets: Vec<u32>,
    /// Flattened membership lists, in set-id order.
    nodes: Vec<NodeId>,
    /// Frozen tier: `frozen_offsets[v]..frozen_offsets[v+1]` delimits
    /// node `v`'s frozen postings in `frozen_data`.
    frozen_offsets: Vec<u32>,
    frozen_data: Vec<u32>,
    /// Hot-tier size-class arena (see module docs).
    data: Vec<u32>,
    /// Hot-tier heads: node → `{start, len}` into `data`.
    heads: Vec<PostingHead>,
    /// Head of the free-block chain per size class (blocks chain through
    /// their slot 0).
    free: Vec<u32>,
}

impl RrIndex {
    /// Empty index over `n` nodes.
    pub fn new(n: usize) -> Self {
        RrIndex {
            n,
            offsets: vec![0],
            nodes: Vec::new(),
            frozen_offsets: vec![0; n + 1],
            frozen_data: Vec::new(),
            data: Vec::new(),
            heads: vec![PostingHead::default(); n],
            free: vec![NIL; 40],
        }
    }

    /// Number of nodes the index is defined over.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of sets stored.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Pops a free block of `class` slots or bumps the arena tail.
    #[inline]
    fn alloc_block(&mut self, class: u32) -> u32 {
        let idx = class_index(class);
        let head = self.free[idx];
        if head != NIL {
            self.free[idx] = self.data[head as usize];
            return head;
        }
        let start = self.data.len();
        debug_assert!(start + class as usize <= u32::MAX as usize);
        self.data.resize(start + class as usize, 0);
        start as u32
    }

    /// Returns a block to its class's free list.
    #[inline]
    fn free_block(&mut self, start: u32, class: u32) {
        let idx = class_index(class);
        self.data[start as usize] = self.free[idx];
        self.free[idx] = start;
    }

    /// Appends `sid` to node `v`'s hot-tail run.
    #[inline]
    fn append_posting(&mut self, v: usize, sid: u32) {
        let PostingHead { start, len } = self.heads[v];
        match len {
            0 => self.heads[v] = PostingHead { start: sid, len: 1 },
            1 => {
                // Spill the inline element into a first arena block.
                let b = self.alloc_block(4);
                self.data[b as usize] = start;
                self.data[b as usize + 1] = sid;
                self.heads[v] = PostingHead { start: b, len: 2 };
            }
            _ => {
                let cap = class_ceil(len);
                if len == cap {
                    // Full: copy-grow to the next class, recycle the run.
                    let ncap = class_ceil(len + 1);
                    let nb = self.alloc_block(ncap);
                    self.data
                        .copy_within(start as usize..(start + len) as usize, nb as usize);
                    self.free_block(start, cap);
                    self.data[(nb + len) as usize] = sid;
                    self.heads[v] = PostingHead {
                        start: nb,
                        len: len + 1,
                    };
                } else {
                    self.data[(start + len) as usize] = sid;
                    self.heads[v].len = len + 1;
                }
            }
        }
    }

    /// Node `v`'s hot-tail run.
    #[inline]
    fn hot(&self, v: usize) -> &[u32] {
        let h = &self.heads[v];
        match h.len {
            0 => &[],
            1 => std::slice::from_ref(&h.start),
            len => &self.data[h.start as usize..(h.start + len) as usize],
        }
    }

    /// Merges the hot tail into the frozen exact-fit tier and resets the
    /// arena. Postings order per node is preserved (frozen then hot,
    /// both ascending). O(n + entries).
    pub fn compact(&mut self) {
        if self.data.is_empty() && self.heads.iter().all(|h| h.len == 0) {
            return;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for v in 0..self.n {
            total += (self.frozen_offsets[v + 1] - self.frozen_offsets[v]) + self.heads[v].len;
            offsets.push(total);
        }
        let mut data = Vec::with_capacity(total as usize);
        for v in 0..self.n {
            let lo = self.frozen_offsets[v] as usize;
            let hi = self.frozen_offsets[v + 1] as usize;
            data.extend_from_slice(&self.frozen_data[lo..hi]);
            data.extend_from_slice(self.hot(v));
        }
        self.frozen_offsets = offsets;
        self.frozen_data = data;
        self.data = Vec::new();
        self.heads
            .iter_mut()
            .for_each(|h| *h = PostingHead::default());
        self.free.iter_mut().for_each(|f| *f = NIL);
    }

    /// Appends one set (members must be duplicate-free — the sampler's
    /// contract) and indexes its members. Returns the new set's id.
    pub fn push_set(&mut self, members: &[NodeId]) -> u32 {
        let sid = self.num_sets() as u32;
        self.nodes.extend_from_slice(members);
        self.offsets.push(self.nodes.len() as u32);
        for &v in members {
            self.append_posting(v as usize, sid);
        }
        // Geometric merge policy: fold the hot tail in once it outgrows
        // half the frozen tier — amortized O(1) slots moved per append.
        if self.data.len() > 4096.max(self.frozen_data.len() / 2) {
            self.compact();
        }
        sid
    }

    /// Members of set `sid`, in sampled order.
    #[inline]
    pub fn set(&self, sid: u32) -> &[NodeId] {
        let lo = self.offsets[sid as usize] as usize;
        let hi = self.offsets[sid as usize + 1] as usize;
        &self.nodes[lo..hi]
    }

    /// Ids of the sets containing `v`, ascending.
    #[inline]
    pub fn postings(&self, v: NodeId) -> Postings<'_> {
        let v = v as usize;
        let lo = self.frozen_offsets[v] as usize;
        let hi = self.frozen_offsets[v + 1] as usize;
        Postings {
            frozen: &self.frozen_data[lo..hi],
            hot: self.hot(v),
        }
    }

    /// Sum of set sizes (total membership entries). Every entry owns
    /// exactly one posting, so this is also the posting count.
    pub fn total_entries(&self) -> usize {
        self.nodes.len()
    }

    /// Exact bytes held: flat arrays, both postings tiers and the head
    /// table. This is the reusable-capital size the online pool budgets
    /// against, and the storage share of the Table 4 metric. O(1): pure
    /// capacity reads, no per-node walk.
    pub fn memory_bytes(&self) -> usize {
        let bytes = self.nodes.capacity() * 4 + self.offsets.capacity() * 4 + self.postings_bytes();
        // Budget accounting polls this on every pool/online decision, so
        // it doubles as the arena high-water observation point.
        tirm_obs::registry::RR_ARENA_BYTES.set_max(bytes as u64);
        bytes
    }

    /// Bytes attributable to the postings structure alone (frozen tier,
    /// arena, head table, free lists) — numerator of the
    /// `bytes_per_posting` metric the bench schema reports.
    pub fn postings_bytes(&self) -> usize {
        self.frozen_offsets.capacity() * 4
            + self.frozen_data.capacity() * 4
            + self.data.capacity() * 4
            + self.heads.capacity() * std::mem::size_of::<PostingHead>()
            + self.free.capacity() * 4
    }

    /// What the postings structure would occupy under the pre-arena
    /// layout (`Vec<Vec<u32>>`: one 24-byte header per node plus a
    /// doubling buffer of capacity `max(4, len.next_power_of_two())`).
    /// Deterministic in the list lengths, so the arena's byte reduction
    /// is testable without ever building the old layout. O(n).
    pub fn legacy_postings_bytes(&self) -> usize {
        (0..self.n)
            .map(|v| {
                let len = self.frozen_offsets[v + 1] - self.frozen_offsets[v] + self.heads[v].len;
                let cap = if len == 0 {
                    0
                } else {
                    len.next_power_of_two().max(4)
                };
                cap as usize * 4 + std::mem::size_of::<Vec<u32>>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collected(ix: &RrIndex, v: NodeId) -> Vec<u32> {
        ix.postings(v).into_iter().collect()
    }

    #[test]
    fn push_and_lookup() {
        let mut ix = RrIndex::new(5);
        assert_eq!(ix.num_sets(), 0);
        assert_eq!(ix.push_set(&[0, 2]), 0);
        assert_eq!(ix.push_set(&[2, 4]), 1);
        assert_eq!(ix.push_set(&[1]), 2);
        assert_eq!(ix.num_sets(), 3);
        assert_eq!(ix.set(1), &[2, 4]);
        assert_eq!(collected(&ix, 2), vec![0, 1]);
        assert!(ix.postings(3).is_empty());
        assert_eq!(ix.postings(2).len(), 2);
        assert_eq!(ix.total_entries(), 5);
        assert!(ix.memory_bytes() > 0);
    }

    #[test]
    fn postings_are_ascending() {
        let mut ix = RrIndex::new(3);
        for _ in 0..10 {
            ix.push_set(&[1]);
        }
        let p = collected(&ix, 1);
        assert!(p.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn class_schedule() {
        for (len, cap) in [
            (1, 4),
            (4, 4),
            (5, 6),
            (6, 6),
            (7, 8),
            (8, 8),
            (9, 12),
            (12, 12),
            (13, 16),
            (17, 24),
            (25, 32),
            (97, 128),
            (96, 96),
        ] {
            assert_eq!(class_ceil(len), cap, "class_ceil({len})");
        }
        // Class indices are dense and injective.
        let classes = [4u32, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256];
        for (i, &c) in classes.iter().enumerate() {
            assert_eq!(class_index(c), i, "class_index({c})");
        }
    }

    #[test]
    fn growth_crosses_classes_and_freezes() {
        let mut ix = RrIndex::new(2);
        for _ in 0..5000 {
            ix.push_set(&[1]);
        }
        let expect: Vec<u32> = (0..5000).collect();
        assert_eq!(collected(&ix, 1), expect);
        assert!(ix.postings(0).is_empty());
        // 5000 singleton appends crossed the merge threshold at least once.
        assert!(
            !ix.postings(1).as_slices().0.is_empty(),
            "frozen tier populated"
        );
    }

    #[test]
    fn compact_preserves_contents_and_order() {
        let mut ix = RrIndex::new(50);
        for i in 0..400u32 {
            let members: Vec<NodeId> = (0..50u32).filter(|v| i % (v + 1) == 0).collect();
            ix.push_set(&members);
        }
        let before: Vec<Vec<u32>> = (0..50).map(|v| collected(&ix, v)).collect();
        ix.compact();
        for v in 0..50u32 {
            let p = ix.postings(v);
            assert!(p.as_slices().1.is_empty(), "hot tier empty after compact");
            assert_eq!(collected(&ix, v), before[v as usize], "node {v}");
            let all = collected(&ix, v);
            assert!(all.windows(2).all(|w| w[0] < w[1]), "ascending after merge");
        }
        // Compacting twice is a no-op.
        let bytes = ix.total_entries();
        ix.compact();
        assert_eq!(ix.total_entries(), bytes);
        assert_eq!(collected(&ix, 0), before[0]);
    }

    /// Satellite: `memory_bytes` must stay pinned to the exact walk even
    /// though it is now an O(1) capacity read. The walk re-derives every
    /// hot-arena slot from scratch — live runs via the head table, free
    /// blocks via the free chains — and must account for the arena
    /// exactly: nothing leaked, nothing double-counted.
    #[test]
    fn memory_bytes_pinned_against_exact_walk() {
        let mut ix = RrIndex::new(300);
        // Heavy-tailed lengths: node v appears in sets that are multiples
        // of v+1.
        for i in 0..2000u32 {
            let members: Vec<NodeId> = (0..300u32).filter(|v| i % (v + 1) == 0).collect();
            ix.push_set(&members);
        }
        // Live slots: every spilled hot run occupies exactly one block of
        // its length's class.
        let live: usize = ix
            .heads
            .iter()
            .filter(|h| h.len >= 2)
            .map(|h| class_ceil(h.len) as usize)
            .sum();
        // Free slots: walk every class chain, far past any class in use.
        let mut freed = 0usize;
        let mut class = 4u32;
        while class_index(class) < ix.free.len() {
            let mut b = ix.free[class_index(class)];
            while b != NIL {
                freed += class as usize;
                b = ix.data[b as usize];
            }
            class = class_ceil(class + 1);
        }
        assert_eq!(live + freed, ix.data.len(), "every arena slot accounted");
        // Frozen tier holds exactly the postings merged so far.
        let frozen_total: usize = *ix.frozen_offsets.last().unwrap() as usize;
        assert_eq!(frozen_total, ix.frozen_data.len());
        let hot_total: usize = ix.heads.iter().map(|h| h.len as usize).sum();
        assert_eq!(frozen_total + hot_total, ix.total_entries());
        let exact = ix.nodes.capacity() * 4
            + ix.offsets.capacity() * 4
            + ix.frozen_offsets.capacity() * 4
            + ix.frozen_data.capacity() * 4
            + ix.data.capacity() * 4
            + ix.heads.capacity() * 8
            + ix.free.capacity() * 4;
        assert_eq!(ix.memory_bytes(), exact);
        assert!(ix.postings_bytes() <= ix.memory_bytes());
    }

    #[test]
    fn arena_beats_legacy_layout_on_heavy_tail() {
        // Harmonic lengths: most lists are short (the regime where the
        // 24-byte Vec header dominates), a few are long. After the final
        // merge — the state reported to the bench schema and budgeted by
        // the online pool — the exact-fit tier must undercut the legacy
        // Vec-of-Vecs layout by well over the 25% acceptance bar.
        let mut ix = RrIndex::new(2000);
        for i in 0..3000u32 {
            let members: Vec<NodeId> = (0..2000u32).filter(|v| i % (v + 1) == 0).collect();
            ix.push_set(&members);
        }
        ix.compact();
        let new = ix.postings_bytes() as f64;
        let old = ix.legacy_postings_bytes() as f64;
        assert!(
            new <= 0.75 * old,
            "arena {new} vs legacy {old}: reduction {:.1}% < 25%",
            (1.0 - new / old) * 100.0
        );
    }
}
