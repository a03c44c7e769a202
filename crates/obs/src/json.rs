//! A minimal JSON reader for validating the observability exports.
//!
//! The workspace is offline (no serde); snapshots and trace events are
//! *written* by hand-formatted strings, and this parser closes the loop so
//! tests and tools can check the output actually parses and reach into it
//! (`value.get("stages").get("chunk").get("count").as_u64()`). It accepts
//! strict JSON; numbers are held as `f64`, which is exact for every
//! counter the exporter emits below 2^53.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member of an object (or `Null` if absent / not an object).
    pub fn get(&self, key: &str) -> &Value {
        match self {
            Value::Obj(m) => m.get(key).unwrap_or(&Value::Null),
            _ => &Value::Null,
        }
    }

    /// Element of an array.
    pub fn at(&self, i: usize) -> &Value {
        match self {
            Value::Arr(v) => v.get(i).unwrap_or(&Value::Null),
            _ => &Value::Null,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object's map, if it is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array's elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending input.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse error for one line of an NDJSON stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NdjsonError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// The underlying document parse error.
    pub inner: ParseError,
}

impl fmt::Display for NdjsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NDJSON line {}: {}", self.line, self.inner)
    }
}

impl std::error::Error for NdjsonError {}

/// Parses an NDJSON stream (one JSON document per line; blank lines are
/// skipped — a truncated final line is an error, not silently dropped).
pub fn parse_ndjson(input: &str) -> Result<Vec<Value>, NdjsonError> {
    let mut docs = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        docs.push(parse(line).map_err(|inner| NdjsonError { line: i + 1, inner })?);
    }
    Ok(docs)
}

/// Parses one JSON document, requiring it to span the whole input.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let b = input.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.i, msg }
    }

    /// The bytes from `start` up to the cursor, if they are UTF-8.
    fn since(&self, start: usize) -> Option<&'a str> {
        self.b.get(start..self.i).and_then(|text| std::str::from_utf8(text).ok())
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn lit(&mut self, s: &str, v: Value) -> Result<Value, ParseError> {
        if self.b.get(self.i..).is_some_and(|rest| rest.starts_with(s.as_bytes())) {
            self.i += s.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek().ok_or_else(|| self.err("unexpected end of input"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.lit("true", Value::Bool(true)),
            b'f' => self.lit("false", Value::Bool(false)),
            b'n' => self.lit("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            m.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.i += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.i += 1;
                    let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.i += 1;
                    match c {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.i += 4;
                            // Surrogates are not paired here; the exporter
                            // never emits them.
                            s.push(char::from_u32(cp).ok_or_else(|| self.err("bad codepoint"))?);
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                c if c < 0x20 => return Err(self.err("control character in string")),
                _ => {
                    // Consume one UTF-8 scalar.
                    let start = self.i;
                    self.i += 1;
                    while self.peek().is_some_and(|c| c & 0xC0 == 0x80) {
                        self.i += 1;
                    }
                    s.push_str(self.since(start).ok_or_else(|| self.err("invalid UTF-8"))?);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.i += 1;
        }
        let text = self.since(start).ok_or(ParseError { at: start, msg: "bad number" })?;
        text.parse::<f64>().map(Value::Num).map_err(|_| ParseError { at: start, msg: "bad number" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, 2.5, {"b": "x\n"}], "t": true, "n": null}"#).unwrap();
        assert_eq!(v.get("a").at(0).as_u64(), Some(1));
        assert_eq!(v.get("a").at(1).as_f64(), Some(2.5));
        assert_eq!(v.get("a").at(2).get("b").as_str(), Some("x\n"));
        assert_eq!(v.get("t"), &Value::Bool(true));
        assert_eq!(v.get("n"), &Value::Null);
        assert_eq!(v.get("missing"), &Value::Null);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2", "{\"a\":01x}"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn unicode_and_escapes_round_trip() {
        let v = parse(r#""café – déjà""#).unwrap();
        assert_eq!(v.as_str(), Some("café – déjà"));
    }
}
