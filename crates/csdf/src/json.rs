//! The workspace's JSON codec: a value, its parser and writer, and the
//! wire form of a throughput.
//!
//! The build environment is offline, so the service protocol, the
//! `csdf-lint --json` lines and the bench rows are all carried by this
//! hand-rolled implementation instead of a JSON crate. It covers the full
//! JSON grammar with two deliberate choices: numbers without a fraction or
//! exponent are kept exact as [`Json::Int`] (`i128`, so request ids and
//! token counts never round), and object keys keep their document order
//! (responses render deterministically). A [`Json::Float`] always renders
//! with a fraction or an exponent, so rendering and parsing again gives the
//! same variant back.
//!
//! Throughputs cross the wire as exact strings ([`throughput_to_string`],
//! [`parse_throughput`]), never floats.

use std::fmt;

use crate::{Rational, Throughput};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, kept exact.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep document/insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the problem.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            position: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.position != parser.bytes.len() {
            return Err(format!(
                "trailing data at byte {} of the JSON document",
                parser.position
            ));
        }
        Ok(value)
    }

    /// An object with the given entries, in order.
    pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(
            entries
                .into_iter()
                .map(|(key, value)| (key.into(), value))
                .collect(),
        )
    }

    /// `value` rounded to `decimals` decimal places, for measured times and
    /// ratios whose further digits are noise.
    pub fn rounded(value: f64, decimals: i32) -> Json {
        let scale = 10f64.powi(decimals);
        Json::Float((value * scale).round() / scale)
    }

    /// Looks up a key of an object (`None` for other variants too).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => entries
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(value) => Some(value),
            _ => None,
        }
    }

    /// The exact integer payload, if this is an integer.
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Int(value) => Some(*value),
            _ => None,
        }
    }

    /// The integer payload as a `u64`, when in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i128().and_then(|value| u64::try_from(value).ok())
    }

    /// The number as an `f64`, if this is an integer or any other number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(value) => Some(*value as f64),
            Json::Float(value) => Some(*value),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(value) => Some(*value),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(values) => Some(values),
            _ => None,
        }
    }
}

impl From<bool> for Json {
    fn from(value: bool) -> Json {
        Json::Bool(value)
    }
}

impl From<&str> for Json {
    fn from(value: &str) -> Json {
        Json::Str(value.to_string())
    }
}

impl From<String> for Json {
    fn from(value: String) -> Json {
        Json::Str(value)
    }
}

macro_rules! from_integer {
    ($($integer:ty),*) => {$(
        impl From<$integer> for Json {
            fn from(value: $integer) -> Json {
                Json::Int(value as i128)
            }
        }
    )*};
}

from_integer!(u64, u128, usize);

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(value) => write!(f, "{value}"),
            Json::Int(value) => write!(f, "{value}"),
            Json::Float(value) => {
                if value.is_finite() {
                    write!(f, "{value:?}")
                } else {
                    // JSON has no NaN/Infinity; degrade to null like most
                    // serialisers do.
                    f.write_str("null")
                }
            }
            Json::Str(value) => write_escaped(f, value),
            Json::Array(values) => {
                f.write_str("[")?;
                for (index, value) in values.iter().enumerate() {
                    if index > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{value}")?;
                }
                f.write_str("]")
            }
            Json::Object(entries) => {
                f.write_str("{")?;
                for (index, (key, value)) in entries.iter().enumerate() {
                    if index > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, value: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut rest = value;
    while let Some(position) = rest.find(|c: char| c == '"' || c == '\\' || (c as u32) < 0x20) {
        f.write_str(&rest[..position])?;
        let character = rest[position..].chars().next().expect("found above");
        match character {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            control => write!(f, "\\u{:04x}", control as u32)?,
        }
        rest = &rest[position + character.len_utf8()..];
    }
    f.write_str(rest)?;
    f.write_str("\"")
}

/// Renders a throughput as its exact wire string: `"num/den"` (always with
/// the denominator, even when 1), `"unbounded"` or `"deadlock"`.
pub fn throughput_to_string(value: Throughput) -> String {
    match value {
        Throughput::Finite(value) => format!("{}/{}", value.numer(), value.denom()),
        Throughput::Unbounded => "unbounded".to_string(),
        Throughput::Deadlocked => "deadlock".to_string(),
    }
}

/// Parses the wire form accepted for throughputs: `"num/den"`, a plain
/// integer string, `"unbounded"` or `"deadlock"`.
///
/// # Errors
///
/// A human-readable message for anything else (including zero denominators).
pub fn parse_throughput(text: &str) -> Result<Throughput, String> {
    match text.trim() {
        "unbounded" => Ok(Throughput::Unbounded),
        "deadlock" => Ok(Throughput::Deadlocked),
        trimmed => {
            let (numer, denom) = match trimmed.split_once('/') {
                Some((numer, denom)) => (
                    numer
                        .trim()
                        .parse::<i128>()
                        .map_err(|_| format!("invalid throughput numerator in `{trimmed}`"))?,
                    denom
                        .trim()
                        .parse::<i128>()
                        .map_err(|_| format!("invalid throughput denominator in `{trimmed}`"))?,
                ),
                None => (
                    trimmed
                        .parse::<i128>()
                        .map_err(|_| format!("invalid throughput `{trimmed}`"))?,
                    1,
                ),
            };
            let rational = Rational::new(numer, denom)
                .map_err(|error| format!("invalid throughput `{trimmed}`: {error}"))?;
            Ok(Throughput::Finite(rational))
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    position: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(&byte) = self.bytes.get(self.position) {
            if matches!(byte, b' ' | b'\t' | b'\n' | b'\r') {
                self.position += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.position).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.position += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                byte as char, self.position
            ))
        }
    }

    fn expect_literal(&mut self, literal: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.position..].starts_with(literal.as_bytes()) {
            self.position += literal.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.position))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.expect_literal("null", Json::Null),
            Some(b't') => self.expect_literal("true", Json::Bool(true)),
            Some(b'f') => self.expect_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected `{}` at byte {}",
                other as char, self.position
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut values = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.position += 1;
            return Ok(Json::Array(values));
        }
        loop {
            self.skip_whitespace();
            values.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.position += 1,
                Some(b']') => {
                    self.position += 1;
                    return Ok(Json::Array(values));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.position)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.position += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.position += 1,
                Some(b'}') => {
                    self.position += 1;
                    return Ok(Json::Object(entries));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.position)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.position;
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.position += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.position += 1;
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
                            let code = self.unicode_escape()?;
                            out.push(code);
                            continue;
                        }
                        _ => return Err(format!("invalid escape at byte {start}")),
                    }
                    self.position += 1;
                }
                Some(_) => {
                    // Consume the whole run up to the next quote or escape in
                    // one go — both delimiters are ASCII, so the run never
                    // splits a multi-byte character and stays valid UTF-8.
                    let mut end = self.position;
                    while let Some(&byte) = self.bytes.get(end) {
                        if byte == b'"' || byte == b'\\' {
                            break;
                        }
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[self.position..end])
                        .map_err(|_| "invalid UTF-8")?;
                    out.push_str(chunk);
                    self.position = end;
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (surrogate pairs supported).
    fn unicode_escape(&mut self) -> Result<char, String> {
        self.position += 1; // the `u`
        let first = self.hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            // High surrogate: a `\uXXXX` low surrogate must follow.
            if self.peek() == Some(b'\\') {
                self.position += 1;
                if self.peek() == Some(b'u') {
                    self.position += 1;
                    let second = self.hex4()?;
                    if (0xDC00..0xE000).contains(&second) {
                        let combined = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                        return char::from_u32(combined)
                            .ok_or_else(|| "invalid surrogate pair".to_string());
                    }
                }
            }
            return Err("lone high surrogate".to_string());
        }
        char::from_u32(first).ok_or_else(|| "invalid unicode escape".to_string())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.position + 4;
        if end > self.bytes.len() {
            return Err("truncated unicode escape".to_string());
        }
        let digits = std::str::from_utf8(&self.bytes[self.position..end])
            .map_err(|_| "invalid unicode escape")?;
        let value = u32::from_str_radix(digits, 16)
            .map_err(|_| format!("invalid unicode escape `\\u{digits}`"))?;
        self.position = end;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.position;
        if self.peek() == Some(b'-') {
            self.position += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.position += 1;
        }
        let mut exact = true;
        if self.peek() == Some(b'.') {
            exact = false;
            self.position += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.position += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            exact = false;
            self.position += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.position += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.position += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.position]).map_err(|_| "invalid number")?;
        if exact {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| format!("invalid integer `{text}` at byte {start}"))
        } else {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("invalid number `{text}` at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(
            Json::parse("[1, 2, 3]").unwrap(),
            Json::Array(vec![Json::Int(1), Json::Int(2), Json::Int(3)])
        );
        let object = Json::parse(r#"{"a": "x", "b": [true, null]}"#).unwrap();
        assert_eq!(object.get("a").and_then(Json::as_str), Some("x"));
        assert_eq!(
            object.get("b").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert!(object.get("missing").is_none());
    }

    #[test]
    fn large_integers_stay_exact() {
        let value = Json::parse("170141183460469231731687303715884105727").unwrap();
        assert_eq!(value.as_i128(), Some(i128::MAX));
    }

    #[test]
    fn strings_unescape_and_re_escape() {
        let parsed = Json::parse(r#""a\nb\t\"q\" \\ \u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(parsed.as_str(), Some("a\nb\t\"q\" \\ é 😀"));
        // Render → parse is the identity.
        let rendered = parsed.to_string();
        assert_eq!(Json::parse(&rendered).unwrap(), parsed);
    }

    #[test]
    fn round_trips_nested_documents() {
        let source = r#"{"id":7,"type":"sweep","graph":{"format":"text","source":"graph g\ntask a durations=1\n"},"slacks":[1,2,3]}"#;
        let parsed = Json::parse(source).unwrap();
        assert_eq!(parsed.to_string(), source);
    }

    #[test]
    fn floats_keep_their_variant_through_a_round_trip() {
        for value in [0.0, 3.0, 5.33, -0.25, 1e20, 1e-7] {
            let rendered = Json::Float(value).to_string();
            assert_eq!(Json::parse(&rendered).unwrap(), Json::Float(value));
        }
        assert_eq!(Json::Float(3.0).to_string(), "3.0");
        assert_eq!(Json::rounded(2.0 / 3.0, 2).to_string(), "0.67");
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn objects_build_from_pairs_and_conversions() {
        let object = Json::object([("a", 1usize.into()), ("b", "x".into()), ("c", true.into())]);
        assert_eq!(object.to_string(), r#"{"a":1,"b":"x","c":true}"#);
        assert_eq!(object.get("a").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn throughput_strings_round_trip() {
        for text in ["3/4", "unbounded", "deadlock", "5/1"] {
            let value = parse_throughput(text).unwrap();
            assert_eq!(throughput_to_string(value), text);
        }
        assert_eq!(
            throughput_to_string(Throughput::Finite(Rational::new(3, 6).unwrap())),
            "1/2"
        );
        assert_eq!(
            parse_throughput("7").unwrap(),
            Throughput::Finite(Rational::from_integer(7))
        );
        assert!(parse_throughput("1/0").is_err());
        assert!(parse_throughput("fast").is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "tru",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"open",
            "1 2",
            "{,}",
            "nan",
            "\"\\q\"",
            "01x",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }
}
