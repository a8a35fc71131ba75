//! A minimal JSON value model, parser and writer.
//!
//! The workspace has no crates.io access (see `vendor/README.md`), so the
//! certificate format of the checker/auditor pipeline carries its own JSON
//! codec. The subset implemented here is exactly what machine-generated
//! documents need: objects, arrays, strings with the standard escapes,
//! numbers, booleans and null. Numbers are held as `f64`; the integer
//! accessors only succeed when the value is exactly representable, which
//! covers every count and index a certificate contains.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is a number exactly representing one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(x) if x.fract() == 0.0 && x.abs() < 9.0e15 => Some(*x as i64),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|v| u64::try_from(v).ok())
    }

    /// The value as a `u32`, if it is an integral number in `u32`'s range —
    /// the checked read for object, shard and program ids, which a
    /// silently wrapping `as u32` would let a hostile document alias.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_i64().and_then(|v| u32::try_from(v).ok())
    }

    /// The value as a `usize`, if it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i64().and_then(|v| usize::try_from(v).ok())
    }

    /// Serializes the value to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => {
                if x.fract() == 0.0 && x.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON parse error: byte offset plus description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Parses a JSON document. Trailing non-whitespace input is an error.
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing input"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            reason: reason.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are replaced rather than paired;
                            // certificates never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // The run up to the next quote or backslash, copied as
                    // one slice: both are ASCII, so neither ends the run
                    // inside a multi-byte character.
                    let rest =
                        (self.text.get(self.pos..)).ok_or_else(|| self.err("invalid UTF-8"))?;
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

/// Convenience: an integer JSON value.
pub fn num(v: impl Into<i64>) -> Json {
    Json::Num(v.into() as f64)
}

/// Convenience: a string JSON value.
pub fn str(v: impl Into<String>) -> Json {
    Json::Str(v.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::Obj(vec![
            ("name".into(), str("cert")),
            ("version".into(), num(1)),
            (
                "flags".into(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
            (
                "nested".into(),
                Json::Obj(vec![("xs".into(), Json::Arr(vec![num(1), num(-2)]))]),
            ),
        ]);
        let text = doc.render();
        let back = parse(&text).unwrap();
        assert_eq!(doc, back);
        assert_eq!(text, back.render());
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\\n\\\"b\" : [ 1 , 2.5 , \"\\u0041\" ] } ").unwrap();
        let arr = v.get("a\n\"b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_i64(), Some(1));
        assert_eq!(arr[1], Json::Num(2.5));
        assert_eq!(arr[2].as_str(), Some("A"));
    }

    /// A long string of one-, two-, three- and four-byte characters with
    /// escapes between them. The scanner once re-validated the rest of the
    /// input for every character it consumed, quadratic in the document.
    #[test]
    fn parses_a_long_mixed_string() {
        let (mut doc, mut expected) = (String::from("[\""), String::new());
        for k in 0..20_000 {
            doc.push_str("x\u{e9}\u{20ac}\u{1f600}\\n\\\"\\u00e9\\\\");
            expected.push_str("x\u{e9}\u{20ac}\u{1f600}\n\"\u{e9}\\");
            if k % 1000 == 0 {
                doc.push_str(" plain ascii run ");
                expected.push_str(" plain ascii run ");
            }
        }
        doc.push_str("\",\"\u{1f600}\"]");
        let parsed = parse(&doc).unwrap();
        let items = parsed.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some(expected.as_str()));
        assert_eq!(items[1].as_str(), Some("\u{1f600}"));
        assert!(parse(&doc[..doc.len() - 2]).is_err(), "cut inside a string");
    }

    #[test]
    fn integer_accessors_are_exact() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("-7").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(parse("2.5").unwrap().as_i64(), None);
        assert_eq!(parse("4294967295").unwrap().as_u32(), Some(u32::MAX));
        assert_eq!(parse("4294967296").unwrap().as_u32(), None);
        assert_eq!(parse("-1").unwrap().as_u32(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"abc", "{1:2}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn get_on_non_object_is_none() {
        assert!(parse("[1]").unwrap().get("x").is_none());
    }
}
