//! Minimal JSON value model, serializer, and parser.
//!
//! The workspace has no serde; reports, profiles, the live console and the
//! bench snapshot build and read [`Json`] trees here. Trace lines do not:
//! their codec (`crate::event`) writes straight into a buffer and reads
//! with `Members`, a scanner over this parser that builds no tree. The
//! parser takes the full JSON grammar, nested at most [`MAX_DEPTH`]
//! deep. A [`Json`] number is an `f64`, so integers round-trip exactly up
//! to 2^53, far beyond any grain count or counter this codebase produces.
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
/// building a tree: each key, borrowed unless it has escapes, with the
/// raw text of its value, which is checked but not decoded.
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
    pub(crate) fn next_member(&mut self) -> Result<Option<(Cow<'a, str>, &'a str)>, JsonError> {
        match self.p.next_member(&mut self.first)? {
            Some(key) => Ok(Some((key, self.p.skip()?))),
            None => self.p.end().map(|()| None),
        }
    }
}

/// The string a raw value text (from [`Members`]) holds; `None` when the
/// value is not a string.
pub(crate) fn unquote(raw: &str) -> Option<Cow<'_, str>> {
    Parser::new(raw).string().ok()
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", expected as char)))
        }
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
    fn next_member(&mut self, first: &mut bool) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.more(b'}', first)? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        let mut first = true;
        match self.peek() {
            Some(b'{') => {
                self.open(b'{')?;
                let mut fields = Vec::new();
                while let Some(key) = self.next_member(&mut first)? {
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
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => {
                let text = self.number()?;
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| self.err("bad number"))
            }
            _ => Err(self.err("expected a value")),
        }
    }

    /// Checks one value without building it; returns its text.
    fn skip(&mut self) -> Result<&'a str, JsonError> {
        let (start, mut first) = (self.pos, true);
        match self.peek() {
            Some(b'{') => {
                self.open(b'{')?;
                while self.next_member(&mut first)?.is_some() {
                    self.skip()?;
                }
            }
            Some(b'[') => {
                self.open(b'[')?;
                while self.more(b']', &mut first)? {
                    self.skip()?;
                }
            }
            Some(b'"') => {
                self.string()?;
            }
            Some(b'-' | b'0'..=b'9') => {
                self.number()?;
            }
            // A literal, or the error.
            _ => {
                self.value()?;
            }
        }
        Ok(&self.text[start..self.pos])
    }

    /// A string, borrowed from the text unless it has escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out: Option<String> = None;
        loop {
            let start = self.pos;
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The run ends at an ASCII byte, so on a char boundary.
            let run = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(run),
                        Some(s) => Cow::Owned(s + run),
                    });
                }
                Some(b'\\') => {
                    let out = out.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // Exactly four hex digits: no sign.
                            let code = hex
                                .iter()
                                .try_fold(0, |code, &h| {
                                    Some(code * 16 + char::from(h).to_digit(16)?)
                                })
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by any producer
                            // in this workspace; map them to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// A number's text, checked against JSON's grammar.
    fn number(&mut self) -> Result<&'a str, JsonError> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while let Some(b'0'..=b'9') = p.peek() {
                p.pos += 1;
            }
            if p.pos > from {
                Ok(())
            } else {
                Err(p.err("bad number"))
            }
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        digits(self)?;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self)?;
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            digits(self)?;
        }
        Ok(&self.text[start..self.pos])
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

    fn scan(text: &str) -> Result<Vec<(Cow<'_, str>, &str)>, JsonError> {
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

    /// The scanner borrows plain keys, hands over values' raw text, and
    /// checks the whole text: numbers against JSON's grammar, and nothing
    /// after the object.
    #[test]
    fn members_scan_one_flat_object() {
        let text = r#" {"a": 1.5e3, "b\u0041": ["x", {"y": null}], "c":"q\"z"} "#;
        let members = scan(text).expect("scans");
        assert!(matches!(members[0].0, Cow::Borrowed("a")));
        assert_eq!(members[1].0, "bA");
        let raws: Vec<&str> = members.iter().map(|m| m.1).collect();
        assert_eq!(raws, [r#"1.5e3"#, r#"["x", {"y": null}]"#, r#""q\"z""#]);
        assert_eq!(unquote(raws[2]).as_deref(), Some("q\"z"));
        assert_eq!(unquote(raws[0]), None);

        for bad in [
            r#"{"a":1} x"#,
            r#"{"a":1.}"#,
            r#"{"a":-}"#,
            r#"{"a":1,}"#,
            r#"{"a" 1}"#,
            "[1]",
        ] {
            assert!(scan(bad).is_err(), "{bad}");
        }
    }
}
