//! The strict pull reader every frame body is decoded with. A decoder
//! asks for the value it expects next and reads it straight off the
//! text: no tree, no key `String`s, no node per number. Every read
//! consumes one whole value or fails; a typed read that meets a
//! well-formed value of another type skips it and answers `Ok(None)`.
//!
//! The grammar is strict JSON and admits nothing the vendored
//! `serde_json::from_str` refuses: UTF-8 is checked once, nesting stops
//! at 128 (in skipped values too), a number needs a finite `f64` value
//! (`1e999` has none), a `\u` escape must name a scalar value, and
//! nothing may follow the value. Integer reads take the JSON integer
//! grammar only and are exact up to `u64::MAX`. Float reads give a plain
//! integer of at most 15 digits its exact value (the one `str::parse`
//! rounds it to) and hand everything else to `str::parse`.
//!
//! What runs once per array item (`peek`, `more`, `number`) is
//! `#[inline(always)]`: as calls, they cost an allocation body's 11.5 k
//! seeds a third of its decode time.

use std::borrow::Cow;

/// `serde_json`'s nesting limit. Skipping recurses, so without one a
/// frame of `[[[[…` would overflow the stack.
const MAX_DEPTH: usize = 128;

type Result<T> = std::result::Result<T, String>;

/// A cursor over one frame body.
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, which must be UTF-8.
    pub(crate) fn new(bytes: &'a [u8]) -> Result<Self> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("frame is not UTF-8: {e}"))?;
        Ok(Reader {
            text,
            pos: 0,
            depth: 0,
        })
    }

    fn err(&self, what: &str) -> String {
        format!("invalid JSON: {what} at byte {}", self.pos)
    }

    /// The next byte after whitespace, not consumed.
    #[inline(always)]
    pub(crate) fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    /// Consumes `b`, the next byte after whitespace.
    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() != Some(b) {
            return Err(self.err(&format!("expected '{}'", char::from(b))));
        }
        self.pos += 1;
        Ok(())
    }

    /// Checks that nothing but whitespace follows the value read.
    pub(crate) fn end(&mut self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing characters after JSON value")),
        }
    }

    /// The frame's `type` tag. Reads the frame object's keys up to the
    /// first `type` (the first key of every frame an encoder writes),
    /// then rewinds, so the decoder that follows reads the whole object.
    pub(crate) fn tag(&mut self) -> Result<Cow<'a, str>> {
        let (start, depth, mut first, mut tag) = (self.pos, self.depth, true, None);
        if self.open(b'{')? {
            while tag.is_none() && self.more(b'}', &mut first)? {
                if self.key()? == "type" {
                    tag = Some(self.str()?.ok_or("missing `type`")?);
                } else {
                    self.skip()?;
                }
            }
        }
        (self.pos, self.depth) = (start, depth);
        tag.ok_or_else(|| "missing `type`".to_string())
    }

    /// Reads an object, handing each key to `entry` with the reader at
    /// its value, which `entry` must read or skip. `Ok(false)` if the
    /// value is not an object.
    #[inline]
    pub(crate) fn object(
        &mut self,
        mut entry: impl FnMut(&mut Self, Cow<'a, str>) -> Result<()>,
    ) -> Result<bool> {
        let (object, mut first) = (self.open(b'{')?, true);
        while object && self.more(b'}', &mut first)? {
            let key = self.key()?;
            entry(self, key)?;
        }
        Ok(object)
    }

    /// Reads an array, handing the reader to `item` at each item, which
    /// `item` must read or skip. `Ok(false)` if the value is not an array.
    #[inline]
    pub(crate) fn array(&mut self, mut item: impl FnMut(&mut Self) -> Result<()>) -> Result<bool> {
        let (array, mut first) = (self.open(b'[')?, true);
        while array && self.more(b']', &mut first)? {
            item(self)?;
        }
        Ok(array)
    }

    /// A string, borrowed from the frame unless it holds an escape.
    pub(crate) fn str(&mut self) -> Result<Option<Cow<'a, str>>> {
        if self.peek() != Some(b'"') {
            return self.skip().map(|()| None);
        }
        self.string().map(Some)
    }

    /// An object's text exactly as it was sent.
    pub(crate) fn raw_object(&mut self) -> Result<Option<&'a str>> {
        let start = (self.peek() == Some(b'{')).then_some(self.pos);
        self.skip()?;
        Ok(start.map(|start| &self.text[start..self.pos]))
    }

    /// A non-negative integer that fits `u64`.
    #[inline(always)]
    pub(crate) fn u64(&mut self) -> Result<Option<u64>> {
        match self.number()? {
            Some((start, Some(int))) if self.text.as_bytes()[start] != b'-' => Ok(Some(int)),
            Some(number) => self.float(number).map(|_| None),
            None => Ok(None),
        }
    }

    /// A number, as the `f64` it denotes.
    #[inline]
    pub(crate) fn f64(&mut self) -> Result<Option<f64>> {
        self.number()?.map(|number| self.float(number)).transpose()
    }

    /// Consumes any one value, checking it all the same.
    pub(crate) fn skip(&mut self) -> Result<()> {
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip()).map(drop),
            Some(b'[') => self.array(Self::skip).map(drop),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.f64().map(drop),
            next => {
                let word = match next {
                    Some(b'n') => "null",
                    Some(b't') => "true",
                    _ => "false",
                };
                if !self.text[self.pos..].starts_with(word) {
                    return Err(self.err("expected a JSON value"));
                }
                self.pos += word.len();
                Ok(())
            }
        }
    }

    /// Steps into the container `open` if it is the next value; skips
    /// any other value and answers `false`.
    #[inline]
    fn open(&mut self, open: u8) -> Result<bool> {
        if self.peek() != Some(open) {
            return self.skip().map(|()| false);
        }
        if self.depth == MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(true)
    }

    /// Whether the open container holds another item (its separator
    /// consumed), or ends here (`close` consumed). `first` is set until
    /// the first item.
    #[inline(always)]
    fn more(&mut self, close: u8, first: &mut bool) -> Result<bool> {
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if std::mem::take(first) => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.err(&format!("expected ',' or '{}'", char::from(close)))),
        }
    }

    /// An object key and its colon.
    #[inline]
    fn key(&mut self) -> Result<Cow<'a, str>> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a key"));
        }
        let key = self.string()?;
        self.eat(b':')?;
        Ok(key)
    }

    /// The string whose opening quote is at `pos`.
    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>> {
        let (text, mut owned) = (self.text, None::<String>);
        self.pos += 1;
        loop {
            // The longest run of plain bytes. Byte-wise scanning is
            // UTF-8-safe: no continuation byte is a delimiter.
            let run = self.pos;
            let is_plain = |b: &u8| *b != b'"' && *b != b'\\' && *b >= 0x20;
            while text.as_bytes().get(self.pos).is_some_and(is_plain) {
                self.pos += 1;
            }
            let plain = &text[run..self.pos];
            self.pos += 1;
            match text.as_bytes().get(self.pos - 1) {
                Some(b'"') => return Ok(owned.map_or(Cow::Borrowed(plain), |s| (s + plain).into())),
                Some(b'\\') => {
                    let c = self.escape()?;
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(plain);
                    s.push(c);
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character the escape at `pos` (past its backslash) stands for.
    fn escape(&mut self) -> Result<char> {
        let bytes = self.text.as_bytes();
        self.pos += 1;
        Ok(match bytes.get(self.pos - 1) {
            Some(&b @ (b'"' | b'\\' | b'/')) => char::from(b),
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = bytes.get(self.pos..self.pos + 4).unwrap_or_default();
                let code = hex
                    .iter()
                    .try_fold(0, |n, &d| Some(n * 16 + char::from(d).to_digit(16)?));
                self.pos += 4;
                match code.filter(|_| hex.len() == 4).and_then(char::from_u32) {
                    Some(c) => c,
                    None => return Err(self.err("bad \\u escape")),
                }
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    /// The number at `pos`, lexed by the JSON grammar: where it starts,
    /// and its magnitude when it is an integer (no fraction or exponent)
    /// that fits `u64`. `None` if the next value is not a number (it is
    /// skipped).
    #[inline(always)]
    fn number(&mut self) -> Result<Option<(usize, Option<u64>)>> {
        // The common case first: a plain integer of at most nineteen
        // digits, which always fits.
        if let Some(b'1'..=b'9') = self.peek() {
            let (bytes, start) = (self.text.as_bytes(), self.pos);
            let (mut end, mut int) = (start, 0u64);
            if let Some(word) = bytes.get(start..start + 8).and_then(|w| w.try_into().ok()) {
                let (n, value) = leading_digits(word);
                (end, int) = (start + n, value);
            }
            while let Some(&d @ b'0'..=b'9') = bytes.get(end) {
                int = int.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                end += 1;
            }
            if end - start <= 19 && !matches!(bytes.get(end), Some(b'.' | b'e' | b'E')) {
                self.pos = end;
                return Ok(Some((start, Some(int))));
            }
        }
        self.lex_number()
    }

    /// [`Self::number`] past its common case.
    fn lex_number(&mut self) -> Result<Option<(usize, Option<u64>)>> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return self.skip().map(|()| None);
        }
        let (bytes, start) = (self.text.as_bytes(), self.pos);
        self.pos += usize::from(bytes[start] == b'-');
        let digits = self.pos;
        self.digits()?;
        if self.pos > digits + 1 && bytes[digits] == b'0' {
            return Err(self.err("malformed number"));
        }
        let int_end = self.pos;
        if bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1 + usize::from(matches!(bytes.get(self.pos + 1), Some(b'+' | b'-')));
            self.digits()?;
        }
        // Exact at any length (`u64::MAX` has twenty digits).
        let int = (self.pos == int_end).then(|| self.text[digits..int_end].parse().ok());
        Ok(Some((start, int.flatten())))
    }

    /// One or more digits.
    fn digits(&mut self) -> Result<()> {
        let at = self.pos;
        while self
            .text
            .as_bytes()
            .get(self.pos)
            .is_some_and(u8::is_ascii_digit)
        {
            self.pos += 1;
        }
        if self.pos == at {
            return Err(self.err("malformed number"));
        }
        Ok(())
    }

    /// The finite `f64` the number just lexed denotes.
    #[inline]
    fn float(&self, (start, int): (usize, Option<u64>)) -> Result<f64> {
        let text = &self.text[start..self.pos];
        match int {
            // At most 15 digits: below 2⁵³, so `as f64` is exact.
            Some(int) if int < 1_000_000_000_000_000 => Ok(if text.starts_with('-') {
                -(int as f64)
            } else {
                int as f64
            }),
            _ => (text.parse().ok())
                .filter(|x: &f64| x.is_finite())
                .ok_or_else(|| self.err("number out of range")),
        }
    }
}

/// The run of digits `word` starts with, read eight bytes at once: its
/// length (up to all eight) and its value.
#[inline(always)]
fn leading_digits(word: [u8; 8]) -> (usize, u64) {
    let word = u64::from_le_bytes(word);
    // Bit 7 marks each byte that is no digit: below '0' the subtraction
    // borrows into it, above '9' the addition carries into it. A borrow
    // or carry only spills into bytes past the first such byte.
    let stops = (word.wrapping_sub(0x3030_3030_3030_3030)
        | word.wrapping_add(0x4646_4646_4646_4646))
        & 0x8080_8080_8080_8080;
    let n = stops.trailing_zeros() as usize / 8;
    if n == 0 {
        return (0, 0);
    }
    // The digits moved up to the top bytes (zeros below them), then
    // merged pairwise: eight of one digit, four of two, two of four.
    let v = (word << (64 - 8 * n)) & 0x0f0f_0f0f_0f0f_0f0f;
    let v = (v.wrapping_mul(10 << 8 | 1) >> 8) & 0x00ff_00ff_00ff_00ff;
    let v = (v.wrapping_mul(100 << 16 | 1) >> 16) & 0x0000_ffff_0000_ffff;
    (n, v.wrapping_mul(10_000 << 32 | 1) >> 32)
}
