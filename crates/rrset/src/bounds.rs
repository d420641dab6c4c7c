//! Set boundaries as an Elias–Fano stream — where each of a parked
//! [`crate::RrSets`]'s sets ends, without its packed offsets.
//!
//! `S` sets over `E` entries end at `end_0 ≤ … ≤ end_{S−1} = E`. With
//! `L = ⌊log₂(E / S)⌋` (0 when the sets average under 2 members), set `i`
//! sets bit `(end_i >> L) + i` of the high part, a plain `Vec<u64>` of
//! `S + (E >> L)` bits, and the low part packs `end_i mod 2^L` at `L` bits
//! a set. At `L = 0` there is no low part and the high part is unary: one
//! 0 bit per member and one 1 bit per set end, so the `j`-th 0 bit, at
//! bit `p`, is a member of set `p − j`. That is the form the counting sort
//! of [`crate::RrSets::into_index`] and [`crate::RrIndex::compact`] reads
//! ([`unary`]): the set id of every member without a start mask, and
//! empty sets as two adjacent 1 bits. `L ≥ 1` keeps long sets from
//! costing more than the offsets they replace (`2 + L` bits a set against
//! the offsets' `⌈log₂(E + 1)⌉`).
//!
//! The stream is read front to back only: nothing looks a set up while
//! its shard is parked, so there is no select structure.

use crate::packed::PackedVec;
use std::borrow::Cow;

/// `sets` ascending set ends over `entries` entries, Elias–Fano coded.
#[derive(Clone, Debug)]
pub(crate) struct Bounds {
    sets: usize,
    entries: usize,
    /// `L`: how many low bits of each end the low part keeps.
    low_bits: u32,
    /// Set `i` ends at bit `(end_i >> low_bits) + i`.
    high: Vec<u64>,
    /// `end_i mod 2^low_bits`, set by set; none at `low_bits == 0`.
    low: Option<PackedVec>,
}

/// The high part of `ends` at `low_bits`: one bit per set, at
/// `(end_i >> low_bits) + i`, in exactly the words `sets` sets over
/// `entries` entries need.
fn high_part(
    ends: impl Iterator<Item = u32>,
    low_bits: u32,
    sets: usize,
    entries: usize,
) -> Vec<u64> {
    let mut high = vec![0u64; (sets + (entries >> low_bits)).div_ceil(64)];
    for (i, end) in ends.enumerate() {
        let at = (end >> low_bits) as usize + i;
        high[at >> 6] |= 1 << (at & 63);
    }
    high
}

/// `sets` ascending set ends over `entries` entries as a unary stream:
/// set `i` ends at bit `end_i + i`, and every other bit of the
/// `entries + sets` is a member.
pub(crate) fn unary(ends: impl Iterator<Item = u32>, sets: usize, entries: usize) -> Vec<u64> {
    high_part(ends, 0, sets, entries)
}

impl Bounds {
    /// Codes `sets` ascending `ends`, the last of which is `entries`.
    pub(crate) fn encode(
        ends: impl Iterator<Item = u32> + Clone,
        sets: usize,
        entries: usize,
    ) -> Self {
        let low_bits = entries
            .checked_div(sets)
            .map_or(0, |avg| avg.max(1).ilog2());
        let low = (low_bits > 0).then(|| {
            let mut low = PackedVec::exact(low_bits, sets);
            let mut out = low.writer();
            for end in ends.clone() {
                out.push(end & ((1 << low_bits) - 1));
            }
            out.finish();
            low
        });
        Bounds {
            sets,
            entries,
            low_bits,
            high: high_part(ends, low_bits, sets, entries),
            low,
        }
    }

    /// Number of sets.
    pub(crate) fn sets(&self) -> usize {
        self.sets
    }

    /// Exact bytes held: the high words and the low part's stream.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.high.capacity() * 8 + self.low.as_ref().map_or(0, PackedVec::capacity_bytes)
    }

    /// The ends, in order: the `i`-th 1 bit of the high part, at bit `p`,
    /// is the high bits `p − i` of `end_i`, and the low part its low ones.
    fn ends(&self) -> impl Iterator<Item = u32> + '_ {
        let mut low = self.low.as_ref().map(|low| low.range(0, self.sets));
        let ones = self.high.iter().enumerate().flat_map(|(k, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let at = k * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    at
                })
            })
        });
        ones.enumerate().map(move |(i, at)| {
            let high = ((at - i) as u32) << self.low_bits;
            high | low
                .as_mut()
                .map_or(0, |low| low.next().expect("one low part a set"))
        })
    }

    /// The boundaries as [`unary`] has them: the high part itself at
    /// `L = 0`, decoded into a new stream otherwise.
    pub(crate) fn unary(&self) -> Cow<'_, [u64]> {
        if self.low_bits == 0 {
            Cow::Borrowed(&self.high)
        } else {
            Cow::Owned(unary(self.ends(), self.sets, self.entries))
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Set ends of sets of the given sizes.
    fn ends_of(sizes: &[u32]) -> Vec<u32> {
        sizes
            .iter()
            .scan(0, |end, &size| {
                *end += size;
                Some(*end)
            })
            .collect()
    }

    /// What `sets` sets over `entries` entries weigh coded: `S + (E >> L)`
    /// high bits in whole words, and at `L ≥ 1` a low part of exactly
    /// `S·L` bits plus its 8 slack bytes.
    pub(crate) fn coded_bytes(sets: usize, entries: usize) -> usize {
        let low_bits = match entries.checked_div(sets) {
            Some(avg) if avg >= 2 => avg.ilog2(),
            _ => 0,
        };
        let low = if low_bits == 0 {
            0
        } else {
            ((sets * low_bits as usize) >> 3) + 8
        };
        (sets + (entries >> low_bits)).div_ceil(64) * 8 + low
    }

    /// `sizes` coded and read back both ways, at the expected `L` and
    /// size.
    fn round_trip(sizes: &[u32]) -> Bounds {
        let ends = ends_of(sizes);
        let (sets, entries) = (ends.len(), ends.last().copied().unwrap_or(0) as usize);
        let b = Bounds::encode(ends.iter().copied(), sets, entries);
        let low_bits = match entries.checked_div(sets) {
            Some(avg) if avg >= 2 => avg.ilog2(),
            _ => 0,
        };
        assert_eq!(b.low_bits, low_bits, "{sizes:?}");
        assert_eq!(b.sets(), sets);
        assert_eq!(b.ends().collect::<Vec<_>>(), ends, "{sizes:?}");
        assert_eq!(b.memory_bytes(), coded_bytes(sets, entries), "{sizes:?}");
        // Unary: each set is its size in 0 bits, then a 1 bit.
        let bits: Vec<bool> = sizes
            .iter()
            .flat_map(|&size| std::iter::repeat_n(false, size as usize).chain([true]))
            .collect();
        let words = b.unary();
        assert_eq!(words.len(), bits.len().div_ceil(64));
        for (at, &bit) in bits.iter().enumerate() {
            assert_eq!(
                (words[at >> 6] >> (at & 63)) & 1 == 1,
                bit,
                "{sizes:?}, bit {at}"
            );
        }
        let tail = bits.len() % 64;
        if tail > 0 {
            assert_eq!(
                words[words.len() - 1] >> tail,
                0,
                "bits past the stream are 0"
            );
        }
        assert_eq!(words[..], unary(ends.iter().copied(), sets, entries)[..]);
        b
    }

    #[test]
    fn singletons_and_pairs_are_unary() {
        let b = round_trip(&[1, 2, 1, 1, 2]);
        assert!(b.low.is_none());
        assert!(matches!(b.unary(), Cow::Borrowed(_)));
        // 0 1 0 0 1 0 1 0 1 0 0 1, read from bit 0 up.
        assert_eq!(b.high, [0b1001_0101_0010]);
    }

    #[test]
    fn long_sets_keep_low_bits() {
        for (size, low_bits) in [(2, 1), (3, 1), (4, 2), (7, 2), (16, 4), (40, 5)] {
            let sizes: Vec<u32> = (0..150).map(|i| size + i % 2).collect();
            let b = round_trip(&sizes);
            assert_eq!(b.low_bits, low_bits, "size {size}");
            assert!(matches!(b.unary(), Cow::Owned(_)));
        }
    }

    #[test]
    fn empty_sets_and_empty_streams() {
        let b = round_trip(&[]);
        assert_eq!((b.sets(), b.memory_bytes()), (0, 0));
        assert!(b.unary().is_empty());
        round_trip(&[0]);
        round_trip(&[0; 200]);
        round_trip(&[0, 0, 3, 0, 0, 0, 1, 0]);
        round_trip(&[5, 0, 0, 0, 9, 0, 4]);
        round_trip(&[64]);
        round_trip(&[63, 0]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn any_sizes_round_trip(
            sizes in proptest::collection::vec(0u32..48, 0..400),
            empty_run in 0usize..80,
        ) {
            // A run of empty sets at the front and in the middle.
            let mut sizes = sizes;
            sizes.splice(0..0, std::iter::repeat_n(0, empty_run));
            let mid = sizes.len() / 2;
            sizes.splice(mid..mid, std::iter::repeat_n(0, empty_run));
            round_trip(&sizes);
        }
    }
}
