//! A minimal, dependency-free JSON layer shared by the perf-harness
//! reports and the network wire protocol.
//!
//! The build environment has no registry access, so there is no `serde`;
//! `BENCH_*.json` files and [`crate::wire`] frame payloads instead go
//! through this hand-rolled tree (the `bench` crate re-exports this
//! module, so report code keeps saying `bench::json`). Two properties
//! matter more than generality:
//!
//! * **Deterministic output** — object keys are sorted at write time and
//!   integers are written as exact decimal digits (`u128`-wide, since the
//!   simulated-femtosecond ledger is `u128`), so the same report always
//!   serializes to the same bytes and consecutive baselines diff cleanly.
//!   Wire payloads use the same writer via [`Json::to_compact`], which is
//!   what makes a request log replayable bit for bit.
//! * **Lossless integers** — counters round-trip as integers, never
//!   through `f64` (which loses precision past 2^53). Negative integers
//!   (GEMM output values on the wire) take the [`Json::Int`] path.
//!
//! The parser accepts standard JSON (it tolerates unsorted keys and
//! whitespace); fractional or exponent-bearing numbers parse into
//! [`Json::Float`], which the report schema does not use but a
//! hand-edited file may contain.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the schema's counters and femtoseconds).
    UInt(u128),
    /// A negative integer, exact (wire-encoded GEMM values can be
    /// negative; they must not detour through `f64`).
    Int(i128),
    /// Any other number (fractional or exponent-bearing).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; `BTreeMap` keeps keys sorted for deterministic writes.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Convenience constructor for an object from `(key, value)` pairs.
    #[must_use]
    pub fn object(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The value at `key` if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The `u128` if this is a [`Json::UInt`].
    #[must_use]
    pub fn as_uint(&self) -> Option<u128> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a signed integer: [`Json::Int`] directly, or a
    /// [`Json::UInt`] that fits in `i128`.
    #[must_use]
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(v) => Some(*v),
            Json::UInt(v) => i128::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The string slice if this is a [`Json::Str`].
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice if this is a [`Json::Array`].
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation, sorted keys, and a trailing
    /// newline — the canonical on-disk form of `BENCH_*.json`.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on a single line with no whitespace — the wire-frame and
    /// request-log form. Keys are sorted exactly as in [`Json::to_pretty`],
    /// so compact output is equally deterministic.
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                // `{:?}` prints the shortest f64 representation that
                // round-trips; JSON has no NaN/Inf, so map those to null.
                if v.is_finite() {
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
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
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Object(map) => {
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
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the first problem,
    /// including arrays/objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded document (`[[[[…`, well
/// within a frame's size cap) would overflow a connection thread's stack
/// and abort the whole process; past this cap it returns an error
/// instead. Every report and wire document nests a handful of levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected '{}' at byte {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if map.insert(key, value).is_some() {
                return Err(format!("duplicate object key before byte {}", self.pos));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_owned())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| "bad \\u escape".to_owned())?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape".to_owned())?;
                            // Surrogate pairs are not needed by the schema;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_owned())?;
        if !is_float {
            return if text.starts_with('-') {
                text.parse::<i128>().map(Json::Int)
            } else {
                text.parse::<u128>().map(Json::UInt)
            }
            .map_err(|_| format!("integer out of range at byte {start}"));
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_sorted_keys_deterministically() {
        let v = Json::object(vec![
            ("zulu", Json::UInt(1)),
            ("alpha", Json::Bool(true)),
            ("mike", Json::Str("hi".into())),
        ]);
        let text = v.to_pretty();
        let alpha = text.find("alpha").unwrap();
        let mike = text.find("mike").unwrap();
        let zulu = text.find("zulu").unwrap();
        assert!(alpha < mike && mike < zulu, "keys not sorted:\n{text}");
        assert_eq!(text, v.to_pretty(), "serialization must be deterministic");
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn u128_counters_roundtrip_losslessly() {
        let big = u128::MAX - 7;
        let v = Json::object(vec![("femtos", Json::UInt(big))]);
        let parsed = Json::parse(&v.to_pretty()).unwrap();
        assert_eq!(parsed.get("femtos").unwrap().as_uint(), Some(big));
        // Past 2^53 an f64 path would corrupt this.
        assert!(big > 1u128 << 53);
    }

    #[test]
    fn parse_roundtrips_nested_structures() {
        let v = Json::object(vec![
            (
                "list",
                Json::Array(vec![Json::UInt(1), Json::Null, Json::Bool(false)]),
            ),
            (
                "nested",
                Json::object(vec![("inner", Json::Str("a\"b\\c\nd".into()))]),
            ),
            ("empty_list", Json::Array(vec![])),
            ("empty_obj", Json::Object(BTreeMap::new())),
        ]);
        let parsed = Json::parse(&v.to_pretty()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn parser_accepts_standard_json_variants() {
        let parsed = Json::parse("  {\"b\":2,\"a\":[1.5,-3,2e2]}  ").unwrap();
        assert_eq!(parsed.get("b").unwrap().as_uint(), Some(2));
        let arr = parsed.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0], Json::Float(1.5));
        assert_eq!(arr[1], Json::Int(-3));
        assert_eq!(arr[2], Json::Float(200.0));
    }

    #[test]
    fn negative_integers_roundtrip_exactly() {
        // i128::MIN would corrupt through any f64 path; it must survive.
        let v = Json::Array(vec![Json::Int(-1), Json::Int(i128::MIN)]);
        let parsed = Json::parse(&v.to_pretty()).unwrap();
        assert_eq!(parsed, v);
        assert_eq!(parsed.as_array().unwrap()[1].as_int(), Some(i128::MIN));
        // as_int also accepts in-range unsigned values, but not overflow.
        assert_eq!(Json::UInt(7).as_int(), Some(7));
        assert_eq!(Json::UInt(u128::MAX).as_int(), None);
    }

    #[test]
    fn compact_form_is_single_line_sorted_and_reparses() {
        let v = Json::object(vec![
            ("zulu", Json::Array(vec![Json::Int(-2), Json::UInt(3)])),
            ("alpha", Json::object(vec![("k", Json::Str("v\n".into()))])),
            ("empty", Json::Array(vec![])),
        ]);
        let compact = v.to_compact();
        assert!(!compact.contains('\n'), "one line only:\n{compact}");
        assert_eq!(
            compact,
            "{\"alpha\":{\"k\":\"v\\n\"},\"empty\":[],\"zulu\":[-2,3]}"
        );
        assert_eq!(Json::parse(&compact).unwrap(), v);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,\"a\":2}",
            "tru",
            "\"unterminated",
            "{\"a\":1} extra",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn escaped_strings_roundtrip() {
        let s = "tab\there \"quoted\" back\\slash \u{1}";
        let v = Json::Str(s.into());
        assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v);
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
    }
}
