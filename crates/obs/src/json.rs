//! Minimal JSON value model, serializer, and parser.
//!
//! The workspace has no serde; reports, profiles, the live console and the
//! bench snapshot build and read [`Json`] trees here. Trace lines do not:
//! their codec (`crate::event`) writes straight into a buffer and reads
//! with `Members`, which builds no tree. Both read through one scanner
//! that takes each value's bytes once: a key or string is borrowed unless
//! it has escapes, and an integer's value is built while its digits are
//! checked. The parser takes the full JSON grammar, nested at most
//! [`MAX_DEPTH`] deep. A [`Json`] number is an `f64`, so integers
//! round-trip exactly up to 2^53, far beyond any grain count or counter
//! this codebase produces.
//!
//! # Non-finite float policy
//!
//! JSON has no token for NaN or ±infinity. A [`Json::Num`] holding a
//! non-finite value serializes as `null`, so a degenerate telemetry
//! sample (NaN dispersion, infinite spread) can never emit an invalid
//! document. The round trip is therefore lossy by design:
//! `num(f64::NAN)` → `"null"` → parses back as [`Json::Null`]. The trace
//! codec follows the same policy, and reads `null` in an optional field
//! as absent.

use std::borrow::Cow;
use std::fmt;

/// A parsed or to-be-serialized JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if numeric and exactly integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A required `u64` field of an object.
    ///
    /// # Errors
    ///
    /// Names the key: `missing field {key}` when absent, or
    /// `field {key}: expected unsigned integer` when present but of the
    /// wrong type. Field errors carry `offset: 0` — they refer to a key,
    /// not a byte position.
    pub fn req_u64(&self, key: &str) -> Result<u64, JsonError> {
        match self.get(key) {
            None => Err(JsonError::field(key, "missing field")),
            Some(j) => j
                .as_u64()
                .ok_or_else(|| JsonError::field_type(key, "unsigned integer")),
        }
    }

    /// A required `f64` field of an object; same error contract as
    /// [`Json::req_u64`].
    ///
    /// # Errors
    ///
    /// Names the key on a missing or mistyped field.
    pub fn req_f64(&self, key: &str) -> Result<f64, JsonError> {
        match self.get(key) {
            None => Err(JsonError::field(key, "missing field")),
            Some(j) => j
                .as_f64()
                .ok_or_else(|| JsonError::field_type(key, "number")),
        }
    }

    /// A required string field of an object; same error contract as
    /// [`Json::req_u64`].
    ///
    /// # Errors
    ///
    /// Names the key on a missing or mistyped field.
    pub fn req_str(&self, key: &str) -> Result<String, JsonError> {
        match self.get(key) {
            None => Err(JsonError::field(key, "missing field")),
            Some(j) => j
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| JsonError::field_type(key, "string")),
        }
    }

    /// A required boolean field of an object; same error contract as
    /// [`Json::req_u64`].
    ///
    /// # Errors
    ///
    /// Names the key on a missing or mistyped field.
    pub fn req_bool(&self, key: &str) -> Result<bool, JsonError> {
        match self.get(key) {
            None => Err(JsonError::field(key, "missing field")),
            Some(j) => j
                .as_bool()
                .ok_or_else(|| JsonError::field_type(key, "bool")),
        }
    }

    /// Parses a JSON document; trailing whitespace is allowed, trailing
    /// content is an error.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let value = p.value()?;
        p.end()?;
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    // JSON has no NaN/inf; degrade to null rather than
                    // emit an unparseable token.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a JSON string literal.
pub(crate) fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// A parse failure: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where the parser stopped.
    pub offset: usize,
}

impl JsonError {
    /// A field-level error (missing/extra field): names the key and
    /// carries `offset: 0`, since it refers to a key rather than a byte.
    pub fn field(key: &str, what: &str) -> JsonError {
        JsonError {
            message: format!("{what} {key}"),
            offset: 0,
        }
    }

    /// A field-type error: `field {key}: expected {expected}`.
    pub fn field_type(key: &str, expected: &str) -> JsonError {
        JsonError {
            message: format!("field {key}: expected {expected}"),
            offset: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// The deepest nesting of arrays and objects a document may have. It is
/// far above anything obs writes (a trace line is one flat object), and
/// it keeps hostile input from overflowing the recursive parser's stack.
pub const MAX_DEPTH: usize = 128;

/// The members of the one object a text holds, read in order without
/// building a tree: each key, borrowed unless it has escapes, with its
/// value's [`Token`].
pub(crate) struct Members<'a> {
    p: Parser<'a>,
    first: bool,
}

impl<'a> Members<'a> {
    /// Opens the object.
    pub(crate) fn new(text: &'a str) -> Result<Self, JsonError> {
        let mut p = Parser::new(text);
        p.skip_ws();
        p.open(b'{')?;
        Ok(Members { p, first: true })
    }

    /// The next member; `None` after the last, once the text is found to
    /// end with the object.
    #[inline]
    pub(crate) fn next_member(&mut self) -> Result<Option<(Cow<'a, str>, Token<'a>)>, JsonError> {
        match self.p.next_key(&mut self.first)? {
            Some(key) => Ok(Some((key, self.p.token()?))),
            None => self.p.end().map(|()| None),
        }
    }
}

/// One value as the scanner read it, each byte once: a scalar as what
/// it holds, an array or object checked and skipped. No variant carries
/// a `bool` beside other data, so moving a token moves whole words.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Token<'a> {
    Null,
    True,
    False,
    /// An integer (no fraction or exponent) in `0..=u64::MAX`, built as
    /// its digits were read.
    Uint(u64),
    /// A negative integer, `-0` included, by its magnitude.
    Neg(u64),
    /// Any other number's text.
    Num(&'a str),
    /// A string without escapes: the text between its quotes.
    Str(&'a str),
    /// A string with escapes, checked but not decoded: the text between
    /// its quotes.
    Escaped(&'a str),
    /// An array or object.
    Nested,
}

impl<'a> Token<'a> {
    /// The number, exactly as `str::parse::<f64>` reads its text. An
    /// integer is converted from its magnitude: `u64 as f64` rounds to
    /// nearest with ties to even, as the parse does, and `-0` is `-0.0`.
    pub(crate) fn as_f64(self) -> Option<f64> {
        match self {
            Token::Uint(m) => Some(m as f64),
            Token::Neg(m) => Some(-(m as f64)),
            Token::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number when it is an integer in `0..=u64::MAX` (so not `-0`).
    pub(crate) fn as_u64(self) -> Option<u64> {
        match self {
            Token::Uint(m) => Some(m),
            _ => None,
        }
    }

    pub(crate) fn as_bool(self) -> Option<bool> {
        match self {
            Token::True => Some(true),
            Token::False => Some(false),
            _ => None,
        }
    }

    /// The string, borrowed unless it has escapes.
    pub(crate) fn as_str(self) -> Option<Cow<'a, str>> {
        match self {
            Token::Str(s) => Some(Cow::Borrowed(s)),
            Token::Escaped(s) => Some(Cow::Owned(unescape(s))),
            _ => None,
        }
    }
}

/// Decodes the escapes of a string's text, which the scan has checked.
#[cold]
fn unescape(text: &str) -> String {
    let mut p = Parser::new(text);
    let mut out = String::with_capacity(text.len());
    while let Some(run) = p.text[p.pos..].find('\\') {
        out.push_str(&p.text[p.pos..p.pos + run]);
        p.pos += run + 1;
        out.extend(p.escape());
    }
    out.push_str(&p.text[p.pos..]);
    out
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

// The functions a trace line's scan runs through are marked `#[inline]`
// and their error paths `#[cold]`: without the hints, decoding a 200,100-
// line trace took about 1.3 times as long.
impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            pos: 0,
            depth: 0,
        }
    }

    #[cold]
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(expected))
        }
    }

    #[cold]
    fn expected(&self, what: u8) -> JsonError {
        self.err(&format!("expected '{}'", what as char))
    }

    /// Only whitespace may follow the document.
    fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing content"))
        }
    }

    /// Enters the array or object that `bracket` opens.
    fn open(&mut self, bracket: u8) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.eat(bracket)?;
        self.depth += 1;
        Ok(())
    }

    /// Whether another element follows in the array or object that
    /// `close` ends: consumes the `,` before it, or at the end `close`
    /// itself. `first` holds until the first element.
    #[inline]
    fn more(&mut self, close: u8, first: &mut bool) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        if !std::mem::take(first) {
            if self.peek() != Some(b',') {
                return Err(self.err(&format!("expected ',' or '{}'", close as char)));
            }
            self.pos += 1;
            self.skip_ws();
        }
        Ok(true)
    }

    /// The next key of the object being read, leaving the parser at its
    /// value; `None` once the object has closed.
    #[inline]
    fn next_key(&mut self, first: &mut bool) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.more(b'}', first)? {
            return Ok(None);
        }
        // `string` yields `Str` or `Escaped`.
        let key = self.string()?.as_str().unwrap_or_default();
        self.skip_ws();
        self.eat(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    fn literal(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// A value as a tree.
    fn value(&mut self) -> Result<Json, JsonError> {
        let mut first = true;
        match self.peek() {
            Some(b'{') => {
                self.open(b'{')?;
                let mut fields = Vec::new();
                while let Some(key) = self.next_key(&mut first)? {
                    fields.push((key.into_owned(), self.value()?));
                }
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.open(b'[')?;
                let mut items = Vec::new();
                while self.more(b']', &mut first)? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            _ => Ok(match self.token()? {
                Token::Null => Json::Null,
                Token::True => Json::Bool(true),
                Token::False => Json::Bool(false),
                Token::Str(s) => Json::Str(s.to_string()),
                Token::Escaped(s) => Json::Str(unescape(s)),
                number => Json::Num(number.as_f64().ok_or_else(|| self.err("bad number"))?),
            }),
        }
    }

    /// One value, read once: a scalar as its token, an array or object
    /// checked without building it.
    #[inline]
    fn token(&mut self) -> Result<Token<'a>, JsonError> {
        match self.peek() {
            Some(b'"') => self.string(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'{' | b'[') => self.nested().map(|()| Token::Nested),
            Some(b't') => self.literal("true", Token::True),
            Some(b'f') => self.literal("false", Token::False),
            Some(b'n') => self.literal("null", Token::Null),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Checks the array or object at `pos` without building it.
    fn nested(&mut self) -> Result<(), JsonError> {
        let mut first = true;
        if self.peek() == Some(b'{') {
            self.open(b'{')?;
            while self.next_key(&mut first)?.is_some() {
                self.token()?;
            }
        } else {
            self.open(b'[')?;
            while self.more(b']', &mut first)? {
                self.token()?;
            }
        }
        Ok(())
    }

    /// A string, its escapes checked but not decoded: `Str` or `Escaped`.
    #[inline]
    fn string(&mut self) -> Result<Token<'a>, JsonError> {
        self.eat(b'"')?;
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let mut escaped = false;
        loop {
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            match self.peek() {
                Some(b'"') => {
                    let text = &self.text[start..self.pos];
                    self.pos += 1;
                    return Ok(if escaped {
                        Token::Escaped(text)
                    } else {
                        Token::Str(text)
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape()?;
                    escaped = true;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The char an escape stands for, read from just past its backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = (self.text.as_bytes())
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                // Exactly four hex digits: no sign.
                let code = hex
                    .iter()
                    .try_fold(0, |code, &h| Some(code * 16 + char::from(h).to_digit(16)?))
                    .ok_or_else(|| self.err("bad \\u escape"))?;
                self.pos += 4;
                // Surrogate pairs are not needed by any producer in this
                // workspace; map them to U+FFFD.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// A number, checked against JSON's grammar; an integer's magnitude
    /// is built from its digits as they are read.
    #[inline]
    fn number(&mut self) -> Result<Token<'a>, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut magnitude = Some(0u64);
        while let Some(d @ b'0'..=b'9') = self.peek() {
            magnitude = magnitude.and_then(|m| m.checked_mul(10)?.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        if self.pos == start + usize::from(negative) {
            return Err(self.err("bad number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
            magnitude = None;
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            self.digits()?;
            magnitude = None;
        }
        Ok(match magnitude {
            Some(m) if negative => Token::Neg(m),
            Some(m) => Token::Uint(m),
            None => Token::Num(&self.text[start..self.pos]),
        })
    }

    /// One or more digits.
    #[inline]
    fn digits(&mut self) -> Result<(), JsonError> {
        let from = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        if self.pos > from {
            Ok(())
        } else {
            Err(self.err("bad number"))
        }
    }
}

/// Convenience: an object field list entry.
pub fn field(key: &str, value: Json) -> (String, Json) {
    (key.to_string(), value)
}

/// Convenience: a numeric JSON value from anything float-convertible.
pub fn num(n: impl Into<f64>) -> Json {
    Json::Num(n.into())
}

/// Convenience: a numeric JSON value from a `u64` counter.
pub fn unum(n: u64) -> Json {
    Json::Num(n as f64)
}

/// Convenience: a string JSON value.
pub fn str(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::Obj(vec![
            field("name", str("trace")),
            field("count", unum(42)),
            field("ratio", num(0.5)),
            field("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            field("nested", Json::Obj(vec![field("k", str("v\"\\\n"))])),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).expect("round trip"), doc);
    }

    #[test]
    fn parses_numbers_and_escapes() {
        let v = Json::parse(r#"{"a": -1.5e3, "b": "xA\ty"}"#).expect("parses");
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(-1500.0));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("xA\ty"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn integers_round_trip_exactly() {
        let n = 9_007_199_254_740_991u64; // 2^53 - 1
        let text = Json::Num(n as f64).to_string();
        assert_eq!(Json::parse(&text).expect("parses").as_u64(), Some(n));
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_string(), "null");
    }

    /// The documented non-finite policy end to end: a NaN/inf number
    /// serializes as `null` and parses back as `Json::Null` — never
    /// invalid JSON.
    #[test]
    fn non_finite_round_trips_to_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::Obj(vec![field("x", num(v))]);
            let text = doc.to_string();
            let back = Json::parse(&text).expect("document stays valid JSON");
            assert_eq!(back.get("x"), Some(&Json::Null), "input {v}");
        }
        // Inside arrays too.
        let arr = Json::Arr(vec![num(1.0), num(f64::NAN), num(2.0)]);
        let back = Json::parse(&arr.to_string()).expect("parses");
        assert_eq!(back, Json::Arr(vec![num(1.0), Json::Null, num(2.0)]));
    }

    #[test]
    fn required_field_errors_name_the_key() {
        let v = Json::parse(r#"{"round": "seven", "live": 8}"#).expect("parses");
        let missing = v.req_u64("nodes").expect_err("field is absent");
        assert!(
            missing.message.contains("nodes"),
            "error must name the key: {missing}"
        );
        assert_eq!(missing.offset, 0);

        let mistyped = v.req_u64("round").expect_err("field is a string");
        assert!(
            mistyped.message.contains("round") && mistyped.message.contains("expected"),
            "error must name the key and the expected type: {mistyped}"
        );

        assert_eq!(v.req_u64("live").expect("valid"), 8);
        assert!(v.req_str("round").is_ok());
        assert!(v.req_f64("round").is_err());
        assert!(v.req_bool("live").is_err());
    }

    fn scan(text: &str) -> Result<Vec<(Cow<'_, str>, Token<'_>)>, JsonError> {
        let (mut members, mut all) = (Members::new(text)?, Vec::new());
        while let Some(member) = members.next_member()? {
            all.push(member);
        }
        Ok(all)
    }

    /// Nesting past `MAX_DEPTH` is an error, not a stack overflow, in the
    /// tree parser and the member scanner alike.
    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).expect_err("too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        let hostile = format!("{{\"x\":{}", "[".repeat(200_000));
        assert!(Json::parse(&hostile).is_err());
        assert!(scan(&hostile).is_err());
        let fits = format!("{{\"x\":{}}}", nested(MAX_DEPTH - 1));
        assert_eq!(scan(&fits).expect("scans").len(), 1);
    }

    /// The scanner borrows plain keys and strings, builds integers as it
    /// reads them, and checks the whole text: numbers against JSON's
    /// grammar, and nothing after the object.
    #[test]
    fn members_scan_one_flat_object() {
        let text = r#" {"a": 1.5e3, "b\u0041": ["x", {"y": null}], "c":"q\"z", "d":-07, "e":"p"} "#;
        let members = scan(text).expect("scans");
        assert!(matches!(members[0].0, Cow::Borrowed("a")));
        assert_eq!(members[1].0, "bA");
        let tokens: Vec<Token<'_>> = members.iter().map(|m| m.1).collect();
        assert_eq!(tokens[0], Token::Num("1.5e3"));
        assert_eq!(tokens[1], Token::Nested);
        assert_eq!(tokens[2], Token::Escaped(r#"q\"z"#));
        assert_eq!(tokens[2].as_str().as_deref(), Some("q\"z"));
        assert_eq!(tokens[3], Token::Neg(7));
        assert!(matches!(tokens[4].as_str(), Some(Cow::Borrowed("p"))));

        for bad in [
            r#"{"a":1} x"#,
            r#"{"a":1.}"#,
            r#"{"a":-}"#,
            r#"{"a":1,}"#,
            r#"{"a" 1}"#,
            r#"{"a":"\q"}"#,
            r#"{"a":"\u12"}"#,
            "[1]",
        ] {
            assert!(scan(bad).is_err(), "{bad}");
        }
    }

    /// A number reads as `str::parse::<f64>` reads its text, bit for bit:
    /// integers through their magnitude, past 2^53, at `u64::MAX` and
    /// beyond it, `-0` included; an integer field takes only `0..=u64::MAX`.
    #[test]
    fn numbers_read_as_the_standard_parse_does() {
        let mut texts: Vec<String> = [
            "0",
            "-0",
            "7",
            "-7",
            "007",
            "-00",
            "1.5",
            "-0.0",
            "1e3",
            "1E-3",
            "1e999",
            "9007199254740992",
            "9007199254740993",
            "9007199254740995",
            "18446744073709551615",
            "-18446744073709551615",
            "18446744073709551616",
            "99999999999999999999999",
            "-99999999999999999999999",
        ]
        .map(String::from)
        .to_vec();
        // Odd values past 2^53 fall between floats: ties and near-ties.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..1_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            texts.push(x.to_string());
            texts.push(format!("-{}", x >> (x % 64)));
        }
        for text in &texts {
            let token = Parser::new(text).token().expect(text);
            let want: f64 = text.parse().expect(text);
            let got = token.as_f64().expect(text);
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
            assert_eq!(token.as_u64(), text.parse::<u64>().ok(), "{text}");
            let tree = Json::parse(text).expect(text).as_f64().expect(text);
            assert_eq!(tree.to_bits(), want.to_bits(), "{text}");
        }
    }
}
