//! Bit-packed unsigned arrays — the storage under [`crate::RrIndex`]'s
//! forward store.
//!
//! A [`PackedVec`] holds `u32` values at a fixed bit width of 1 to 32 as
//! one little-endian bit stream in a `Vec<u8>`: value `i` occupies bits
//! `i·width .. (i+1)·width`. At least [`SLACK`] bytes follow the byte the
//! next value would start in, so every read is one bounds-checked 8-byte
//! window, a shift of at most 7 and a mask (`7 + 32 < 64`). Bits past
//! the last value are always 0, which is what lets an append OR into the
//! stream instead of clear-then-set.

/// Zero bytes kept from the write cursor's byte on.
const SLACK: usize = 8;

/// Zero bytes an append that outgrows the stream adds past what it
/// needs, so that appends of a few values resize once every few dozen.
/// Capacity past them is never touched, so never resident.
const GROW: usize = 64;

/// Bits needed to store `max`: at least 1, at most 32.
#[inline]
pub(crate) fn width_for(max: u32) -> u32 {
    (u32::BITS - max.leading_zeros()).max(1)
}

/// The 8-byte window starting at byte `at`, as a little-endian word.
#[inline]
fn window(bytes: &[u8], at: usize) -> u64 {
    let w: [u8; 8] = bytes[at..at + 8].try_into().expect("a window is 8 bytes");
    u64::from_le_bytes(w)
}

/// A growable array of `u32` values stored at a fixed bit width.
#[derive(Clone, Debug)]
pub(crate) struct PackedVec {
    /// The bit stream: at least `(len·width >> 3) + SLACK` bytes long,
    /// at most [`GROW`] more.
    bytes: Vec<u8>,
    len: usize,
    width: u32,
}

impl PackedVec {
    /// Empty array storing values of `width` bits (`1..=32`).
    pub(crate) fn new(width: u32) -> Self {
        assert!((1..=32).contains(&width), "bit width {width} not in 1..=32");
        PackedVec {
            bytes: Vec::new(),
            len: 0,
            width,
        }
    }

    /// Empty array storing values of `width` bits whose stream is `len`
    /// zero bytes in an allocation of `capacity`: the shape
    /// [`Self::stream`] read off another array, so that writing its
    /// values back through [`Self::writer`] gives that array to the byte.
    pub(crate) fn with_stream(width: u32, (len, capacity): (usize, usize)) -> Self {
        let mut packed = PackedVec::new(width);
        packed.bytes.reserve_exact(capacity);
        packed.bytes.resize(len, 0);
        packed
    }

    /// Empty array storing values of `width` bits with a stream exactly
    /// long enough for `count` of them.
    pub(crate) fn exact(width: u32, count: usize) -> Self {
        let len = ((count * width as usize) >> 3) + SLACK;
        PackedVec::with_stream(width, (len, len))
    }

    /// The stream's length and capacity in bytes.
    pub(crate) fn stream(&self) -> (usize, usize) {
        (self.bytes.len(), self.bytes.capacity())
    }

    /// Appends values one at a time to a stream long enough for them
    /// (from [`Self::reach`], [`Self::with_stream`] or [`Self::exact`]).
    #[inline]
    pub(crate) fn writer(&mut self) -> Writer<'_> {
        let bit = self.len * self.width as usize;
        let at = bit >> 3;
        // The accumulator starts with the partial byte's bits (all else
        // past `bit` is 0).
        Writer {
            acc: window(&self.bytes, at),
            fill: bit & 7,
            at,
            width: self.width as usize,
            mask: self.mask(),
            pushed: 0,
            packed: self,
        }
    }

    /// Number of values stored.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bits per value.
    #[inline]
    pub(crate) fn width(&self) -> u32 {
        self.width
    }

    /// Bytes allocated for the bit stream — the exact heap footprint.
    #[inline]
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.bytes.capacity()
    }

    #[inline]
    fn mask(&self) -> u64 {
        (1u64 << self.width) - 1
    }

    /// Value `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> u32 {
        assert!(
            i < self.len,
            "index {i} out of range for length {}",
            self.len
        );
        let bit = i * self.width as usize;
        ((window(&self.bytes, bit >> 3) >> (bit & 7)) & self.mask()) as u32
    }

    /// Values `i` and `i + 1`, from one window when both fit in it.
    #[inline]
    pub(crate) fn pair(&self, i: usize) -> (u32, u32) {
        assert!(
            i + 1 < self.len,
            "index {} out of range for length {}",
            i + 1,
            self.len
        );
        let width = self.width as usize;
        let bit = i * width;
        let word = window(&self.bytes, bit >> 3) >> (bit & 7);
        let mask = self.mask();
        let next = if 2 * width + 7 <= 64 {
            (word >> width) & mask
        } else {
            u64::from(self.get(i + 1))
        };
        ((word & mask) as u32, next as u32)
    }

    /// Values `lo..hi`, in order.
    #[inline]
    pub(crate) fn range(&self, lo: usize, hi: usize) -> Iter<'_> {
        assert!(
            lo <= hi && hi <= self.len,
            "range {lo}..{hi} out of bounds for length {}",
            self.len
        );
        Iter {
            bytes: &self.bytes,
            bit: lo * self.width as usize,
            width: self.width as usize,
            mask: self.mask(),
            left: hi - lo,
        }
    }

    /// Makes the stream reach [`SLACK`] bytes past bit `end`, zero-filling
    /// [`GROW`] bytes ahead when it has to grow.
    #[inline]
    fn reach(&mut self, end: usize) {
        let need = (end >> 3) + SLACK;
        if self.bytes.len() < need {
            self.bytes.resize(need + GROW, 0);
        }
    }

    /// Appends `values`, every one of which must fit the width.
    #[inline]
    pub(crate) fn extend_from_slice(&mut self, values: &[u32]) {
        self.reach((self.len + values.len()) * self.width as usize);
        let mut out = self.writer();
        for &v in values {
            out.push(v);
        }
        out.finish();
    }

    /// Appends one value.
    #[inline]
    pub(crate) fn push(&mut self, value: u32) {
        self.extend_from_slice(&[value]);
    }

    /// Repacks every value at `width` bits (wider than now), in place and
    /// last value first: each moves up into bits no unread value
    /// occupies. The new bits gather in a 64-bit accumulator below byte
    /// `top` that is flushed four whole bytes at a time, downwards.
    pub(crate) fn widen(&mut self, width: u32) {
        assert!(
            width > self.width && width <= 32,
            "widening {} bits to {width}",
            self.width
        );
        let (from, to) = (self.width as usize, width as usize);
        let mask = self.mask();
        let end = self.len * to;
        self.reach(end);
        // `acc` holds bits `top·8 − 64 .. top·8` of the new stream, of
        // which the high `pending < 32` are final between values (the
        // first ones are the 0 bits from `end` up to a byte boundary).
        let mut top = end.div_ceil(8);
        let mut pending = top * 8 - end;
        let mut acc = 0u64;
        for i in (0..self.len).rev() {
            let src = i * from;
            let v = (window(&self.bytes, src >> 3) >> (src & 7)) & mask;
            pending += to;
            acc |= v << (64 - pending);
            if pending >= 32 {
                self.bytes[top - 4..top].copy_from_slice(&((acc >> 32) as u32).to_le_bytes());
                acc <<= 32;
                top -= 4;
                pending -= 32;
            }
        }
        // What is left is bits `0 .. top·8`, the high bytes of `acc`.
        self.bytes[..top].copy_from_slice(&acc.to_le_bytes()[8 - top..]);
        self.width = width;
    }
}

/// Appends to a [`PackedVec`] whose stream already reaches past the
/// values to come. The values gather in a 64-bit accumulator that holds
/// `fill < 32` bits between values and is flushed four whole bytes at a
/// time, and once more, as a full window, by [`Writer::finish`], which
/// is what appends them.
#[must_use = "values are appended by `finish`"]
pub(crate) struct Writer<'a> {
    packed: &'a mut PackedVec,
    acc: u64,
    fill: usize,
    /// The byte the accumulator's low bits go to.
    at: usize,
    width: usize,
    mask: u64,
    pushed: usize,
}

impl Writer<'_> {
    /// Appends `v`, which must fit the width.
    #[inline]
    pub(crate) fn push(&mut self, v: u32) {
        assert!(
            u64::from(v) <= self.mask,
            "value wider than {} bits",
            self.width
        );
        self.acc |= u64::from(v) << self.fill;
        self.fill += self.width;
        if self.fill >= 32 {
            self.packed.bytes[self.at..self.at + 4]
                .copy_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.at += 4;
            self.fill -= 32;
        }
        self.pushed += 1;
    }

    /// Writes out what the accumulator holds and appends the values
    /// pushed.
    #[inline]
    pub(crate) fn finish(self) {
        self.packed.bytes[self.at..self.at + 8].copy_from_slice(&self.acc.to_le_bytes());
        self.packed.len += self.pushed;
    }
}

/// Iterator over a run of a [`PackedVec`]'s values.
#[derive(Clone, Debug)]
pub(crate) struct Iter<'a> {
    bytes: &'a [u8],
    bit: usize,
    width: usize,
    mask: u64,
    left: usize,
}

impl Iterator for Iter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let v = (window(self.bytes, self.bit >> 3) >> (self.bit & 7)) & self.mask;
        self.bit += self.width;
        Some(v as u32)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values that exercise `width` bits: 0, the maximum, and a spread of
    /// patterns in between, in an order that puts every start offset
    /// 0..8 under both neighbours.
    fn values_for(width: u32) -> Vec<u32> {
        let max = (((1u64) << width) - 1) as u32;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut out = vec![0, max, 0, max, max, 0, 1 & max, max >> 1];
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            out.push((x >> 32) as u32 & max);
        }
        out
    }

    #[test]
    fn round_trips_at_every_width() {
        for width in 1..=32u32 {
            let vals = values_for(width);
            // One value at a time and in bulk, split at an odd point.
            let mut one = PackedVec::new(width);
            for &v in &vals {
                one.push(v);
            }
            let mut bulk = PackedVec::new(width);
            bulk.extend_from_slice(&vals[..37]);
            bulk.extend_from_slice(&vals[37..]);
            for p in [&one, &bulk] {
                assert_eq!(p.len(), vals.len());
                assert_eq!(p.width(), width);
                assert_eq!(
                    p.range(0, p.len()).collect::<Vec<_>>(),
                    vals,
                    "width {width}"
                );
                for (i, &v) in vals.iter().enumerate() {
                    assert_eq!(p.get(i), v, "width {width}, index {i}");
                }
                for (i, w) in vals.windows(2).enumerate() {
                    assert_eq!(p.pair(i), (w[0], w[1]), "width {width}, pair {i}");
                }
                assert_eq!(p.range(5, 13).len(), 8);
                assert_eq!(p.range(5, 13).collect::<Vec<_>>(), vals[5..13]);
                // The stream is the bits the values need plus the slack,
                // and at most one growth step more.
                let used = ((vals.len() * width as usize) >> 3) + SLACK;
                assert!(p.bytes.len() >= used, "width {width}");
                assert!(p.bytes.len() <= used + GROW, "width {width}");
                assert!(p.capacity_bytes() >= p.bytes.len());
            }
        }
    }

    #[test]
    fn widths_hold_their_maximum() {
        assert_eq!(width_for(0), 1);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(2), 2);
        assert_eq!(width_for(255), 8);
        assert_eq!(width_for(256), 9);
        assert_eq!(width_for(u32::MAX), 32);
        let mut p = PackedVec::new(32);
        p.extend_from_slice(&[u32::MAX, 0, u32::MAX]);
        assert_eq!(p.range(0, 3).collect::<Vec<_>>(), [u32::MAX, 0, u32::MAX]);
    }

    #[test]
    fn widening_keeps_every_value() {
        for width in 1..32u32 {
            let vals = values_for(width);
            for len in [0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 31, 33, vals.len()] {
                for to in [width + 1, (width + 7).min(32), 32] {
                    let mut p = PackedVec::new(width);
                    p.extend_from_slice(&vals[..len]);
                    p.widen(to);
                    assert_eq!(p.width(), to);
                    assert_eq!(p.len(), len);
                    let got: Vec<u32> = p.range(0, len).collect();
                    assert_eq!(got, vals[..len], "{width} → {to} bits, {len} values");
                    // The bits past the last value are still 0: the next
                    // append reads back exactly.
                    let top = (((1u64) << to) - 1) as u32;
                    p.extend_from_slice(&[top, 1]);
                    assert_eq!(p.get(len), top, "{width} → {to} bits, {len} values");
                    assert_eq!(p.get(len + 1), 1);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn a_value_past_the_width_is_refused() {
        PackedVec::new(3).push(8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_read_past_the_end_is_refused() {
        let mut p = PackedVec::new(5);
        p.push(3);
        p.get(1);
    }
}
