//! JSON text, both directions, for the `serde` and `serde_json` shims.
//!
//! * **Writing** is appending to a `String`: [`push_u64`] and friends
//!   are what every `Serialize` impl (hand-written or derived) bottoms
//!   out in.
//! * **Reading** is pulling from a [`Reader`], a tokenizer over a
//!   `&str` that hands out one token at a time and never builds
//!   anything the caller did not ask for.
//! * [`Value`] is the document tree for callers that want one (`json!`,
//!   untyped result files). It is an ordinary implementor of the two
//!   traits: its `deserialize` *is* the DOM builder, so a tree and a
//!   typed struct are read by the same tokenizer.
//!
//! Integers are kept at full `u128`/`i128` precision (the memo database
//! digests 128-bit inputs); floats use Rust's shortest round-trip
//! `Display` form.
//!
//! # What the reader accepts
//!
//! RFC 8259 plus the leniencies this shim has always had, kept so that
//! every file written or read before still means the same: leading
//! zeros (`007`), an empty integer, fraction or exponent part as long as
//! Rust's own `f64`/`u128`/`i128` parser takes the spelling (`1.`,
//! `1.e3`, `-.5`; not `-`, `1e`, `.5`), raw control characters inside
//! strings, duplicate object keys, and float overflow to `inf`. Integers
//! beyond `u128`/`i128` are an error, as is a `\u` high surrogate not
//! followed by a low one. [`Reader::skip_value`] steps over plain
//! strings and numbers itself and hands every other token to the one
//! number scanner and the one string scanner the typed readers use, so
//! what is skipped is validated exactly as what is kept.
//!
//! Nesting deeper than [`MAX_DEPTH`] is an error (`recursion limit
//! exceeded`), so hostile input ends in an `Err`, not a stack overflow;
//! `skip_value` keeps its open containers on a bit stack, not the call
//! stack.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use crate::{Deserialize, Serialize};

/// A JSON number. Integers and floats are kept apart so 64/128-bit
/// values round-trip exactly.
#[derive(Clone, Copy, Debug)]
pub enum Num {
    /// A non-negative integer.
    Pos(u128),
    /// A negative integer.
    Neg(i128),
    /// A floating-point number.
    Float(f64),
}

impl PartialEq for Num {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Num::Pos(a), Num::Pos(b)) => a == b,
            (Num::Neg(a), Num::Neg(b)) => a == b,
            (Num::Float(a), Num::Float(b)) => a == b,
            (Num::Pos(a), Num::Float(b)) | (Num::Float(b), Num::Pos(a)) => *a as f64 == *b,
            (Num::Neg(a), Num::Float(b)) | (Num::Float(b), Num::Neg(a)) => *a as f64 == *b,
            _ => false,
        }
    }
}

/// A JSON document. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Num(Num),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object as an ordered entry list.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as a u64, if a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(Num::Pos(p)) => u64::try_from(*p).ok(),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

impl Num {
    /// The number as an f64 (integers round to nearest).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Num::Pos(p) => p as f64,
            Num::Neg(n) => n as f64,
            Num::Float(f) => f,
        }
    }
}

impl Serialize for Value {
    fn serialize(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.serialize(out),
            Value::Num(Num::Pos(p)) => push_u128(out, *p),
            Value::Num(Num::Neg(n)) => push_i128(out, *n),
            Value::Num(Num::Float(f)) => push_f64(out, *f),
            Value::Str(s) => push_string(out, s),
            Value::Array(items) => items.serialize(out),
            Value::Object(entries) => crate::write_map(out, entries.iter().map(|(k, v)| (k, v))),
        }
    }
}

/// The DOM builder: one `Value` per token, through the same [`Reader`]
/// calls a typed `Deserialize` makes.
impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match r.kind()? {
            Kind::Null => {
                r.null()?;
                Value::Null
            }
            Kind::Bool => Value::Bool(r.bool()?),
            Kind::Number => Value::Num(r.number()?),
            Kind::String => Value::Str(r.string()?.into_owned()),
            Kind::Array => {
                let mut items = Vec::new();
                let mut more = r.begin_array()?;
                while more {
                    items.push(Value::deserialize(r)?);
                    more = r.next_element()?;
                }
                Value::Array(items)
            }
            Kind::Object => {
                let mut entries = Vec::new();
                let mut more = r.begin_object()?;
                while more {
                    let key = r.key()?.into_owned();
                    entries.push((key, Value::deserialize(r)?));
                    more = r.next_entry()?;
                }
                Value::Object(entries)
            }
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_string(self))
    }
}

/// Renders `value` as compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.serialize(&mut out);
    out
}

/// Reads one `T` from a complete JSON document (nothing but whitespace
/// may follow it).
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut r = Reader::new(s);
    let value = T::deserialize(&mut r)?;
    r.end()?;
    Ok(value)
}

/// Parses a JSON document into a tree.
pub fn parse(s: &str) -> Result<Value, Error> {
    from_str(s)
}

// ---------------------------------------------------------------------
// Writing.
// ---------------------------------------------------------------------

/// `"00" "01" … "99"`: two digits per division when rendering integers.
const DIGIT_PAIRS: &str = "\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Appends `v` in decimal, two digits at a time: the pairs are found
/// from the low end and pushed from the high end, each a slice of the
/// pair table, so no byte is checked for UTF-8.
#[inline]
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut pairs = [0u8; 10];
    let mut n = 0;
    while v >= 100 {
        pairs[n] = (v % 100) as u8;
        v /= 100;
        n += 1;
    }
    let lead = v as usize * 2;
    out.push_str(&DIGIT_PAIRS[lead + usize::from(v < 10)..lead + 2]);
    for &pair in pairs[..n].iter().rev() {
        let at = usize::from(pair) * 2;
        out.push_str(&DIGIT_PAIRS[at..at + 2]);
    }
}

/// Appends `v` in decimal.
pub fn push_u128(out: &mut String, v: u128) {
    /// 10¹⁹, the largest power of ten a `u64` holds.
    const CHUNK: u128 = 10_000_000_000_000_000_000;
    match u64::try_from(v) {
        Ok(small) => push_u64(out, small),
        Err(_) => {
            push_u128(out, v / CHUNK);
            let low = (v % CHUNK) as u64;
            let digits = low.checked_ilog10().map_or(1, |d| d as usize + 1);
            out.extend(std::iter::repeat_n('0', 19 - digits));
            push_u64(out, low);
        }
    }
}

/// Appends `v` in decimal.
pub fn push_i128(out: &mut String, v: i128) {
    if v < 0 {
        out.push('-');
    }
    push_u128(out, v.unsigned_abs());
}

/// Appends `f` in Rust's shortest round-trip form, `null` if it is not
/// finite (as serde_json does). A whole number keeps a `.0` so a round
/// trip preserves the float/integer distinction.
pub fn push_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{f}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    let mut clean_from = 0;
    for (i, b) in s.bytes().enumerate() {
        let letter = match b {
            b'"' | b'\\' => b,
            b'\n' => b'n',
            b'\r' => b'r',
            b'\t' => b't',
            0x00..=0x1F => b'u',
            _ => continue,
        };
        out.push_str(&s[clean_from..i]);
        out.push('\\');
        out.push(letter as char);
        if letter == b'u' {
            out.push_str("00");
            for nibble in [b >> 4, b & 0xF] {
                out.push(char::from_digit(nibble.into(), 16).expect("a nibble"));
            }
        }
        clean_from = i + 1;
    }
    out.push_str(&s[clean_from..]);
    out.push('"');
}

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

/// A (de)serialization error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl Error {
    /// Builds an error from a message.
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }

    /// Builds a "expected X, got Y" error.
    pub fn expected(what: &str, got: Kind) -> Self {
        Error(format!("expected {what}, got {}", got.name()))
    }

    /// A required struct field never appeared.
    pub fn missing_field(key: &str) -> Self {
        Error(format!("missing field '{key}'"))
    }

    /// Wraps the error of a struct field's value with the field's name.
    pub fn field(key: &str, inner: Error) -> Self {
        Error(format!("field '{key}': {inner}"))
    }

    /// An enum tag that names no variant of the right shape.
    pub fn unknown_variant(ty: &str, tag: &str) -> Self {
        Error(format!("unknown {ty} variant '{tag}'"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

// ---------------------------------------------------------------------
// Reading.
// ---------------------------------------------------------------------

/// Containers may nest this deep (the limit real serde_json has).
pub const MAX_DEPTH: usize = 128;

/// What the next token starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` / `false`
    Bool,
    /// A number.
    Number,
    /// A string.
    String,
    /// `[`
    Array,
    /// `{`
    Object,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "bool",
            Kind::Number => "number",
            Kind::String => "string",
            Kind::Array => "array",
            Kind::Object => "object",
        }
    }
}

/// A pull tokenizer over one JSON document.
///
/// [`kind`](Reader::kind) peeks; every other method consumes exactly one
/// token (or, for [`skip_value`](Reader::skip_value), one whole value)
/// and fails with an [`Error`] if the input does not hold it. Containers
/// are walked with a `more` flag:
///
/// ```
/// # use serde::json::{Reader, Error};
/// # fn main() -> Result<(), Error> {
/// let mut r = Reader::new(r#"{"a": [1, 2], "b": null}"#);
/// let mut sum = 0;
/// let mut more = r.begin_object()?;
/// while more {
///     if r.key()? == "a" {
///         let mut more = r.begin_array()?;
///         while more {
///             sum += r.number()?.as_f64() as u32;
///             more = r.next_element()?;
///         }
///     } else {
///         r.skip_value()?;
///     }
///     more = r.next_entry()?;
/// }
/// r.end()?;
/// assert_eq!(sum, 3);
/// # Ok(())
/// # }
/// ```
///
/// After an `Err` the position is unspecified; drop the reader.
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> usize {
        self.pos
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, Error> {
        let b = self
            .peek()
            .ok_or_else(|| Error::msg("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    fn skip_ws(&mut self) {
        self.pos = ws_end(self.src.as_bytes(), self.pos);
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), Error> {
        let got = self.bump()?;
        if got != b {
            return Err(Error::msg(format!(
                "expected '{}' at offset {}, got '{}'",
                b as char,
                self.pos - 1,
                got as char
            )));
        }
        Ok(())
    }

    /// Skips whitespace and reports what the next token starts, without
    /// consuming it.
    #[inline]
    pub fn kind(&mut self) -> Result<Kind, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::String),
            Some(b'[') => Ok(Kind::Array),
            Some(b'{') => Ok(Kind::Object),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            other => Err(self.no_token(other)),
        }
    }

    #[cold]
    fn no_token(&self, got: Option<u8>) -> Error {
        match got {
            Some(c) => Error::msg(format!(
                "unexpected character '{}' at offset {}",
                c as char, self.pos
            )),
            None => Error::msg("unexpected end of input"),
        }
    }

    /// Checks that the next token starts a `want`.
    #[inline]
    fn expect_kind(&mut self, want: Kind) -> Result<(), Error> {
        let got = self.kind()?;
        if got == want {
            Ok(())
        } else {
            Err(Error::expected(want.name(), got))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(Error::msg(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    /// Consumes `null`.
    #[inline]
    pub fn null(&mut self) -> Result<(), Error> {
        self.expect_kind(Kind::Null)?;
        self.literal("null")
    }

    /// Consumes `true` or `false`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, Error> {
        self.expect_kind(Kind::Bool)?;
        if self.peek() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// Consumes a number.
    #[inline]
    pub fn number(&mut self) -> Result<Num, Error> {
        self.expect_kind(Kind::Number)?;
        self.number_here()
    }

    /// The number scanner, on a reader that [`kind`](Reader::kind) has
    /// just found at a number.
    #[inline]
    pub(crate) fn number_here(&mut self) -> Result<Num, Error> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let negative = bytes[start] == b'-';
        let int_start = start + usize::from(negative);
        let (int_end, small) = integer_at(bytes, int_start);
        if let Some(small) =
            small.filter(|_| !matches!(bytes.get(int_end), Some(b'.' | b'e' | b'E')))
        {
            self.pos = int_end;
            return Ok(if negative {
                Num::Neg(-i128::from(small))
            } else {
                Num::Pos(u128::from(small))
            });
        }
        let pos = number_end(bytes, int_end);
        self.pos = pos;
        let text = &self.src[start..pos];
        if pos > int_end {
            let f: f64 = text
                .parse()
                .map_err(|_| Error::msg(format!("invalid number '{text}'")))?;
            return Ok(Num::Float(f));
        }
        let out_of_range = |_| Error::msg(format!("integer '{text}' out of range"));
        if negative {
            text.parse().map(Num::Neg).map_err(out_of_range)
        } else {
            text.parse().map(Num::Pos).map_err(out_of_range)
        }
    }

    /// Consumes a string: borrowed from the input when it holds no
    /// escapes, decoded into an owned one otherwise.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.skip_ws();
        if let Some(end) = plain_string_end(self.src.as_bytes(), self.pos) {
            let raw = &self.src[self.pos + 1..end - 1];
            self.pos = end;
            return Ok(Cow::Borrowed(raw));
        }
        let mut decoded = String::new();
        Ok(match self.scan_string(Some(&mut decoded))? {
            Some(raw) => Cow::Borrowed(raw),
            None => Cow::Owned(decoded),
        })
    }

    /// The one string scanner. Returns the contents as a slice of the
    /// input if they hold no escapes; otherwise validates every escape
    /// and, if `decoded` is given, appends the decoded contents to it.
    fn scan_string(&mut self, mut decoded: Option<&mut String>) -> Result<Option<&'a str>, Error> {
        self.expect_kind(Kind::String)?;
        self.pos += 1;
        let src = self.src;
        let mut clean_from = self.pos;
        let mut escaped = false;
        loop {
            // `"` and `\` are ASCII, so every index this stops at is a
            // character boundary of the (valid UTF-8) input.
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            let clean = &src[clean_from..self.pos];
            if self.bump()? == b'"' {
                if !escaped {
                    return Ok(Some(clean));
                }
                if let Some(out) = decoded {
                    out.push_str(clean);
                }
                return Ok(None);
            }
            escaped = true;
            let c = match self.bump()? {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => self.unicode_escape()?,
                other => return Err(Error::msg(format!("invalid escape '\\{}'", other as char))),
            };
            if let Some(out) = decoded.as_deref_mut() {
                out.push_str(clean);
                out.push(c);
            }
            clean_from = self.pos;
        }
    }

    /// The code point of a `\uXXXX` escape (the `\u` already consumed),
    /// joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let cp = self.hex4()?;
        if !(0xD800..0xDC00).contains(&cp) {
            return char::from_u32(cp).ok_or_else(|| Error::msg("invalid codepoint"));
        }
        self.expect_byte(b'\\')?;
        self.expect_byte(b'u')?;
        let lo = self.hex4()?;
        if !(0xDC00..0xE000).contains(&lo) {
            return Err(Error::msg("invalid surrogate pair"));
        }
        char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
            .ok_or_else(|| Error::msg("invalid surrogate pair"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = (self.bump()? as char)
                .to_digit(16)
                .ok_or_else(|| Error::msg("invalid \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    #[inline]
    fn enter(&mut self) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        Ok(())
    }

    #[cold]
    fn too_deep(&self) -> Error {
        Error::msg(format!("recursion limit exceeded at offset {}", self.pos))
    }

    /// After an opening bracket: `false` (and the container is closed)
    /// if `close` follows.
    #[inline]
    fn first(&mut self, close: u8) -> bool {
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return false;
        }
        true
    }

    /// After a member: `true` past a `,`, `false` past `close`.
    #[inline]
    fn after_member(&mut self, close: u8) -> Result<bool, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(self.no_member_end(close)),
        }
    }

    #[cold]
    fn no_member_end(&mut self, close: u8) -> Error {
        match self.bump() {
            Ok(other) => Error::msg(format!(
                "expected ',' or '{}', got '{}'",
                close as char, other as char
            )),
            Err(e) => e,
        }
    }

    /// Consumes `[`. `false` means the array was empty and is already
    /// closed; `true` means an element follows.
    #[inline]
    pub fn begin_array(&mut self) -> Result<bool, Error> {
        self.expect_kind(Kind::Array)?;
        self.enter()?;
        Ok(self.first(b']'))
    }

    /// After an element: `true` if another follows, `false` once the
    /// array is closed.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.after_member(b']')
    }

    /// Consumes `{`. `false` means the object was empty and is already
    /// closed; `true` means a key follows.
    #[inline]
    pub fn begin_object(&mut self) -> Result<bool, Error> {
        self.expect_kind(Kind::Object)?;
        self.enter()?;
        Ok(self.first(b'}'))
    }

    /// Consumes an entry's key and its `:`, leaving the reader on the
    /// entry's value. Borrowed from the input when it holds no escapes.
    #[inline]
    pub fn key(&mut self) -> Result<Cow<'a, str>, Error> {
        let key = self.string()?;
        self.colon()?;
        Ok(key)
    }

    #[inline]
    fn colon(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.peek() == Some(b':') {
            self.pos += 1;
            return Ok(());
        }
        self.expect_byte(b':')
    }

    /// After an entry's value: `true` if another entry follows, `false`
    /// once the object is closed.
    #[inline]
    pub fn next_entry(&mut self) -> Result<bool, Error> {
        self.after_member(b'}')
    }

    /// Consumes one whole value of any kind, validating it exactly as
    /// the typed readers would, allocating nothing.
    ///
    /// One loop over the bytes, the open containers a bit stack beside
    /// `depth`. Plain strings and numbers (see `plain_string_end` and
    /// `plain_number_end`) and the structural bytes are stepped over
    /// inline; anything else — an escape, a long integer, a lenient
    /// spelling, every error — goes through the same scanner and helper
    /// a typed read uses, from the same offset, so the outcome, the
    /// error text and the end offset are theirs.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        const _: () = assert!(MAX_DEPTH <= u128::BITS as usize);
        let bytes = self.src.as_bytes();
        let base = self.depth;
        // Bit `d - 1` is set when the container at depth `d` is an object.
        let mut objects = 0u128;
        let mut at = self.pos;
        loop {
            // One value.
            at = ws_end(bytes, at);
            match bytes.get(at) {
                Some(b'"') => {
                    at = match plain_string_end(bytes, at) {
                        Some(end) => end,
                        None => self.step_from(at, |r| r.scan_string(None).map(drop))?,
                    }
                }
                Some(b'-' | b'0'..=b'9') => {
                    at = match plain_number_end(bytes, at) {
                        Some(end) => end,
                        None => self.step_from(at, |r| r.number().map(drop))?,
                    }
                }
                Some(&open @ (b'[' | b'{')) => {
                    if self.depth == MAX_DEPTH {
                        self.pos = at;
                        return Err(self.too_deep());
                    }
                    self.depth += 1;
                    at = ws_end(bytes, at + 1);
                    // `]` and `}` are two past `[` and `{`.
                    if bytes.get(at) == Some(&(open + 2)) {
                        at += 1;
                        self.depth -= 1;
                    } else {
                        let bit = 1u128 << (self.depth - 1);
                        if open == b'{' {
                            objects |= bit;
                            at = self.skip_key(at)?;
                        } else {
                            objects &= !bit;
                        }
                        continue;
                    }
                }
                Some(b't' | b'f') => at = self.step_from(at, |r| r.bool().map(drop))?,
                _ => at = self.step_from(at, Reader::null)?,
            }
            // Close what the value ended, up to the next member.
            loop {
                if self.depth == base {
                    self.pos = at;
                    return Ok(());
                }
                let object = objects >> (self.depth - 1) & 1 == 1;
                let close = if object { b'}' } else { b']' };
                at = ws_end(bytes, at);
                match bytes.get(at) {
                    Some(b',') if object => {
                        at = self.skip_key(at + 1)?;
                        break;
                    }
                    Some(b',') => {
                        at += 1;
                        break;
                    }
                    Some(&b) if b == close => {
                        at += 1;
                        self.depth -= 1;
                    }
                    _ => {
                        self.pos = at;
                        return Err(self.no_member_end(close));
                    }
                }
            }
        }
    }

    /// Past an object key and its `:` from `at`, without decoding the
    /// key.
    #[inline]
    fn skip_key(&mut self, at: usize) -> Result<usize, Error> {
        let bytes = self.src.as_bytes();
        let at = ws_end(bytes, at);
        let at = match plain_string_end(bytes, at) {
            Some(end) => end,
            None => self.step_from(at, |r| r.scan_string(None).map(drop))?,
        };
        let at = ws_end(bytes, at);
        if bytes.get(at) == Some(&b':') {
            return Ok(at + 1);
        }
        self.step_from(at, Reader::colon)
    }

    /// Runs one reader step from offset `at`; where it ends.
    fn step_from(
        &mut self,
        at: usize,
        step: impl FnOnce(&mut Self) -> Result<(), Error>,
    ) -> Result<usize, Error> {
        self.pos = at;
        step(self)?;
        Ok(self.pos)
    }

    /// Checks that nothing but whitespace is left.
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(Error::msg(format!(
                "trailing characters at offset {}",
                self.pos
            )));
        }
        Ok(())
    }
}

// Eight bytes at a time: `u64` words read little-endian, so the first
// byte is the lowest. A flag is bit 7 of a byte; below the lowest flag
// no carry or borrow has crossed a byte, so the lowest flag is exact.

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// The eight bytes at `pos` as one word, if eight remain.
#[inline]
fn word_at(bytes: &[u8], pos: usize) -> Option<u64> {
    let chunk = bytes.get(pos..pos.checked_add(8)?)?;
    Some(u64::from_le_bytes(chunk.try_into().expect("eight bytes")))
}

/// How many of `word`'s bytes, from the first, are ASCII digits.
#[inline]
fn digit_prefix(word: u64) -> usize {
    let flags = (word.wrapping_add(0x46 * ONES) | word.wrapping_sub(0x30 * ONES)) & HIGHS;
    (flags.trailing_zeros() / 8) as usize
}

/// Flags the bytes of `word` equal to `b`.
#[inline]
fn bytes_equal(word: u64, b: u8) -> u64 {
    let x = word ^ (u64::from(b) * ONES);
    x.wrapping_sub(ONES) & !x & HIGHS
}

/// The value of the first `n` (1–8) ASCII digits of `word`.
#[inline]
fn digits_value(word: u64, n: usize) -> u64 {
    // Left-pad to eight digits with zeros, then fold pairs, quads, octets.
    let v = (word.wrapping_sub(0x30 * ONES)) << (8 * (8 - n));
    let v = v.wrapping_mul(10) + (v >> 8);
    let pairs = 0x0000_00FF_0000_00FF;
    let quads = (v & pairs).wrapping_mul(100 + (1_000_000 << 32))
        + ((v >> 16) & pairs).wrapping_mul(1 + (10_000 << 32));
    quads >> 32 & 0xFFFF_FFFF
}

/// The end of the whitespace from `pos` on.
#[inline]
fn ws_end(bytes: &[u8], mut pos: usize) -> usize {
    while matches!(bytes.get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        pos += 1;
    }
    pos
}

/// The end of the digits from `pos` on.
#[inline]
fn digits_end(bytes: &[u8], mut pos: usize) -> usize {
    while let Some(word) = word_at(bytes, pos) {
        let n = digit_prefix(word);
        pos += n;
        if n < 8 {
            return pos;
        }
    }
    while matches!(bytes.get(pos), Some(b'0'..=b'9')) {
        pos += 1;
    }
    pos
}

/// The end of the digits from `pos` on and, if there are 1–19 of them
/// (so that they fit a `u64`), their value.
#[inline]
fn integer_at(bytes: &[u8], pos: usize) -> (usize, Option<u64>) {
    const POW10: [u64; 9] = [
        1,
        10,
        100,
        1_000,
        10_000,
        100_000,
        1_000_000,
        10_000_000,
        100_000_000,
    ];
    let mut value = 0u64;
    let mut end = pos;
    while let Some(word) = word_at(bytes, end) {
        let n = digit_prefix(word);
        if n == 0 || end - pos + n > 19 {
            break;
        }
        value = value * POW10[n] + digits_value(word, n);
        end += n;
        if n < 8 {
            return (end, Some(value));
        }
    }
    while let Some(&d @ b'0'..=b'9') = bytes.get(end) {
        if end - pos == 19 {
            return (digits_end(bytes, end), None);
        }
        value = value * 10 + u64::from(d - b'0');
        end += 1;
    }
    (end, (end > pos).then_some(value))
}

/// The end of a number's fraction and exponent parts, from the end of
/// its integer part: what the number scanner consumes, spelled well or
/// not.
fn number_end(bytes: &[u8], mut pos: usize) -> usize {
    if bytes.get(pos) == Some(&b'.') {
        pos = digits_end(bytes, pos + 1);
    }
    if matches!(bytes.get(pos), Some(b'e' | b'E')) {
        pos += 1;
        if matches!(bytes.get(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        pos = digits_end(bytes, pos);
    }
    pos
}

/// One past the closing `"` of the string at `pos`, if `pos` holds a
/// `"` and the string closes before any `\`. Such a string is valid
/// as it stands: the input is UTF-8 and raw control characters are
/// accepted.
#[inline]
fn plain_string_end(bytes: &[u8], pos: usize) -> Option<usize> {
    if bytes.get(pos) != Some(&b'"') {
        return None;
    }
    let mut at = pos + 1;
    while let Some(word) = word_at(bytes, at) {
        let flags = bytes_equal(word, b'"') | bytes_equal(word, b'\\');
        if flags != 0 {
            at += (flags.trailing_zeros() / 8) as usize;
            return (bytes[at] == b'"').then_some(at + 1);
        }
        at += 8;
    }
    let len = bytes[at..].iter().position(|&b| b == b'"' || b == b'\\')?;
    (bytes[at + len] == b'"').then_some(at + len + 1)
}

/// The end of the number at `pos`, if it is an integer of 1–19 digits
/// or a float with at least one digit in each part it has: spellings
/// the number scanner accepts as they stand, whatever their value.
#[inline]
fn plain_number_end(bytes: &[u8], pos: usize) -> Option<usize> {
    let int_start = pos + usize::from(bytes.get(pos) == Some(&b'-'));
    let int_end = digits_end(bytes, int_start);
    let int_len = int_end - int_start;
    let mut end = int_end;
    if bytes.get(end) == Some(&b'.') {
        end = digits_end(bytes, end + 1);
        if end == int_end + 1 {
            return None;
        }
    }
    if matches!(bytes.get(end), Some(b'e' | b'E')) {
        let mut from = end + 1;
        if matches!(bytes.get(from), Some(b'+' | b'-')) {
            from += 1;
        }
        end = digits_end(bytes, from);
        if end == from {
            return None;
        }
    }
    let float = end > int_end;
    (int_len > 0 && (float || int_len <= 19)).then_some(end)
}
