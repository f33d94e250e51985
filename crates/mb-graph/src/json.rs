//! Minimal self-contained JSON reader/writer.
//!
//! The build environment has no registry access, so instead of `serde_json`
//! the graph export in [`crate::export`] uses this small module: a generic
//! [`JsonValue`] tree, a recursive-descent parser, and a pretty printer.
//! Numbers round-trip exactly: integer literals are kept as native `u64` /
//! `i64` (full 64-bit fidelity — observable masks may use all 64 bits), and
//! floats are printed with Rust's shortest-roundtrip formatting and
//! re-parsed with `str::parse`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer literal (exact up to `u64::MAX`).
    UInt(u64),
    /// A negative integer literal (exact down to `i64::MIN`).
    Int(i64),
    /// A float literal (or an integer too large for the native types).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys are kept sorted for deterministic output.
    Object(BTreeMap<String, JsonValue>),
}

/// Error produced by [`parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// The value under `key`, when this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number as an `f64`, when this is any numeric variant. Integers
    /// beyond 2^53 lose precision here — use [`JsonValue::as_u64`] /
    /// [`JsonValue::as_i64`] for exact integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(x) => Some(*x as f64),
            JsonValue::Int(x) => Some(*x as f64),
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as a `u64`, when it is an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(x) => Some(*x),
            JsonValue::Int(x) => u64::try_from(*x).ok(),
            JsonValue::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= (1u64 << 53) as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The number as an `i64`, when it is an exact integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::UInt(x) => i64::try_from(*x).ok(),
            JsonValue::Int(x) => Some(*x),
            JsonValue::Number(x) if x.fract() == 0.0 && x.abs() <= (1u64 << 53) as f64 => {
                Some(*x as i64)
            }
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(x) => {
                let _ = write!(out, "{x}");
            }
            JsonValue::Int(x) => {
                let _ = write!(out, "{x}");
            }
            JsonValue::Number(x) => write_number(out, *x),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, x: f64) {
    if x.fract() == 0.0 && x.abs() < (1u64 << 53) as f64 {
        let _ = write!(out, "{}", x as i64);
    } else {
        // Rust's shortest-roundtrip float formatting; parses back exactly
        let _ = write!(out, "{x:?}");
    }
}

fn write_string(out: &mut String, s: &str) {
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

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound a hostile document (a corpus's
/// provenance, say) of a million `[` would overflow the stack and abort.
pub(crate) const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first problem,
/// including arrays and objects nested deeper than 128 levels.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses one array or object, one nesting level below the current.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, keyword: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{keyword}'")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            // exact 64-bit integers; fall through to f64 only on overflow
            if negative {
                if let Ok(x) = text.parse::<i64>() {
                    return Ok(JsonValue::Int(x));
                }
            } else if let Ok(x) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(x));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error(&format!("invalid number '{text}'")))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.error("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // surrogate pairs are not needed by the export format
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // consume one UTF-8 character
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "3.25"] {
            let value = parse(text).unwrap();
            assert_eq!(parse(&value.to_pretty_string()).unwrap(), value, "{text}");
        }
    }

    #[test]
    fn integer_literals_parse_to_native_types() {
        assert_eq!(parse("7").unwrap(), JsonValue::UInt(7));
        assert_eq!(parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse("0").unwrap(), JsonValue::UInt(0));
    }

    #[test]
    fn full_u64_range_round_trips_exactly() {
        // observable masks may use all 64 bits; f64 would corrupt these
        for x in [u64::MAX, (1 << 60) | 1, (1 << 53) + 1] {
            let printed = JsonValue::UInt(x).to_pretty_string();
            assert_eq!(parse(&printed).unwrap().as_u64(), Some(x), "{printed}");
        }
        let printed = JsonValue::Int(i64::MIN).to_pretty_string();
        assert_eq!(parse(&printed).unwrap().as_i64(), Some(i64::MIN));
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1e-9, 0.005, std::f64::consts::PI, 1.0 / 3.0] {
            let printed = JsonValue::Number(x).to_pretty_string();
            assert_eq!(parse(&printed).unwrap().as_f64(), Some(x), "{printed}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "line\nbreak \"quoted\" back\\slash\ttab";
        let value = JsonValue::String(original.to_string());
        let printed = value.to_pretty_string();
        assert_eq!(parse(&printed).unwrap(), value);
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a": [1, 2, [3, {"b": null}]], "c": {"d": true}}"#;
        let value = parse(text).unwrap();
        assert_eq!(parse(&value.to_pretty_string()).unwrap(), value);
        assert_eq!(
            value.get("c").and_then(|c| c.get("d")),
            Some(&JsonValue::Bool(true))
        );
    }

    #[test]
    fn errors_carry_offsets() {
        let err = parse("[1, 2,").unwrap_err();
        assert!(err.offset >= 6, "offset {}", err.offset);
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1] trailing").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}null{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("{\"a\":", "}", MAX_DEPTH)).is_ok());
        let err = parse(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(parse(&nest("{\"a\":", "}", MAX_DEPTH + 1)).is_err());
        // deep enough to overflow the stack without the bound
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn integer_accessors_enforce_exactness() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(parse("-7").unwrap().as_u64(), None);
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        // oversized integer falls back to f64 and is rejected as exact
        let huge = "99999999999999999999999999999";
        assert!(matches!(parse(huge).unwrap(), JsonValue::Number(_)));
        assert_eq!(parse(huge).unwrap().as_u64(), None);
    }
}
