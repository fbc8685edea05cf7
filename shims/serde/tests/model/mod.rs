//! The reader's skip path as it was before `Reader::skip_value` became
//! one iterative loop: a recursive descent through `kind`, the one
//! number scanner and the one string scanner, kept verbatim as the
//! oracle of `props::skip_value_matches_the_recursive_model`. Same
//! accepted set, same error text, same end offset.

use serde::json::{Error, MAX_DEPTH};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Null,
    Bool,
    Number,
    String,
    Array,
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

/// The recursive reader, reduced to what skipping a value reaches.
pub struct ModelReader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> ModelReader<'a> {
    pub fn new(src: &'a str) -> Self {
        ModelReader {
            src,
            pos: 0,
            depth: 0,
        }
    }

    pub fn offset(&self) -> usize {
        self.pos
    }

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

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
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

    fn kind(&mut self) -> Result<Kind, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::String),
            Some(b'[') => Ok(Kind::Array),
            Some(b'{') => Ok(Kind::Object),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(c) => Err(Error::msg(format!(
                "unexpected character '{}' at offset {}",
                c as char, self.pos
            ))),
            None => Err(Error::msg("unexpected end of input")),
        }
    }

    fn expect_kind(&mut self, want: Kind) -> Result<(), Error> {
        let got = self.kind()?;
        if got == want {
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected {}, got {}",
                want.name(),
                got.name()
            )))
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

    fn null(&mut self) -> Result<(), Error> {
        self.expect_kind(Kind::Null)?;
        self.literal("null")
    }

    fn bool(&mut self) -> Result<bool, Error> {
        self.expect_kind(Kind::Bool)?;
        if self.peek() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// The number scanner, its value reduced to "parsed or not".
    fn number(&mut self) -> Result<(), Error> {
        self.expect_kind(Kind::Number)?;
        let bytes = self.src.as_bytes();
        let digits = |mut pos: usize| {
            while matches!(bytes.get(pos), Some(b'0'..=b'9')) {
                pos += 1;
            }
            pos
        };
        let start = self.pos;
        let negative = bytes[start] == b'-';
        let int_start = start + usize::from(negative);
        let mut pos = digits(int_start);
        let int_end = pos;
        if bytes.get(pos) == Some(&b'.') {
            pos = digits(pos + 1);
        }
        if matches!(bytes.get(pos), Some(b'e' | b'E')) {
            pos += 1;
            if matches!(bytes.get(pos), Some(b'+' | b'-')) {
                pos += 1;
            }
            pos = digits(pos);
        }
        self.pos = pos;
        let text = &self.src[start..pos];
        if pos > int_end {
            return text
                .parse::<f64>()
                .map(drop)
                .map_err(|_| Error::msg(format!("invalid number '{text}'")));
        }
        if (1..=19).contains(&(int_end - int_start)) {
            return Ok(());
        }
        let out_of_range = |_| Error::msg(format!("integer '{text}' out of range"));
        if negative {
            text.parse::<i128>().map(drop).map_err(out_of_range)
        } else {
            text.parse::<u128>().map(drop).map_err(out_of_range)
        }
    }

    fn scan_string(&mut self) -> Result<(), Error> {
        self.expect_kind(Kind::String)?;
        self.pos += 1;
        loop {
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            if self.bump()? == b'"' {
                return Ok(());
            }
            match self.bump()? {
                b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                b'u' => {
                    self.unicode_escape()?;
                }
                other => return Err(Error::msg(format!("invalid escape '\\{}'", other as char))),
            }
        }
    }

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

    fn enter(&mut self) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::msg(format!(
                "recursion limit exceeded at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        Ok(())
    }

    fn first(&mut self, close: u8) -> bool {
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return false;
        }
        true
    }

    fn after_member(&mut self, close: u8) -> Result<bool, Error> {
        self.skip_ws();
        match self.bump()? {
            b',' => Ok(true),
            b if b == close => {
                self.depth -= 1;
                Ok(false)
            }
            other => Err(Error::msg(format!(
                "expected ',' or '{}', got '{}'",
                close as char, other as char
            ))),
        }
    }

    pub fn begin_array(&mut self) -> Result<bool, Error> {
        self.expect_kind(Kind::Array)?;
        self.enter()?;
        Ok(self.first(b']'))
    }

    fn begin_object(&mut self) -> Result<bool, Error> {
        self.expect_kind(Kind::Object)?;
        self.enter()?;
        Ok(self.first(b'}'))
    }

    fn colon(&mut self) -> Result<(), Error> {
        self.skip_ws();
        self.expect_byte(b':')
    }

    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.kind()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Number => self.number(),
            Kind::String => self.scan_string(),
            Kind::Array => {
                let mut more = self.begin_array()?;
                while more {
                    self.skip_value()?;
                    more = self.after_member(b']')?;
                }
                Ok(())
            }
            Kind::Object => {
                let mut more = self.begin_object()?;
                while more {
                    self.scan_string()?;
                    self.colon()?;
                    self.skip_value()?;
                    more = self.after_member(b'}')?;
                }
                Ok(())
            }
        }
    }
}
