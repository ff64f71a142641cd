//! The workspace's one JSON layer: an ordered tree, a deterministic
//! writer and a strict recursive-descent parser, std-only.
//!
//! Everything the workspace writes as JSON goes through this module: the
//! eval and chip reports and their golden files, the daemon protocol,
//! [`JsonlSink`](crate::JsonlSink) telemetry (through [`write_str`] and
//! [`write_num`], without building a tree per record), the bench
//! snapshots and the analyzer's baseline and reports. Two properties
//! matter here beyond correctness:
//!
//! * **Deterministic output.** Objects keep insertion order and floats
//!   format via Rust's shortest-roundtrip `Display`, so serializing the
//!   same report twice yields the same bytes — the harness promises
//!   byte-identical `RESULTS.json` across runs and thread counts.
//! * **Strict input.** The parser accepts RFC 8259 and nothing else: it
//!   rejects trailing garbage, unterminated containers, malformed numbers
//!   (`01`, `1.`, `+1`, `.5`) and malformed `\u` escapes (not four hex
//!   digits, or an unpaired surrogate) instead of guessing; golden-file
//!   comparison must fail loudly on a corrupt file, and the daemon
//!   answers a malformed frame with an error, not a job.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order (no hashing), which is
/// what makes serialization deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers round-trip exactly up to 2^53.
    Num(f64),
    /// A string (escapes are resolved at parse time).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key–value list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An integer count as a number.
    pub fn int(v: usize) -> Json {
        Json::Num(v as f64)
    }

    /// Looks up `key` in an object (first match); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if exactly
    /// representable.
    pub fn as_usize(&self) -> Option<usize> {
        let v = self.as_f64()?;
        if v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53) {
            Some(v as usize)
        } else {
            None
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string field `key` of an object.
    ///
    /// # Errors
    ///
    /// Names `key` when the field is missing or not a string.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing or non-string {key:?}"))
    }

    /// The non-negative integer field `key` of an object.
    ///
    /// # Errors
    ///
    /// Names `key` when the field is missing or not such an integer.
    pub fn usize_field(&self, key: &str) -> Result<usize, String> {
        self.get(key)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("missing or non-integer {key:?}"))
    }

    /// The numeric field `key` of an object.
    ///
    /// # Errors
    ///
    /// Names `key` when the field is missing or not a number.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing or non-numeric {key:?}"))
    }

    /// Serializes to a compact JSON string (no whitespace). Non-finite
    /// numbers become `null`.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation and a trailing newline — the
    /// `RESULTS.json` / `golden.json` on-disk format (diff-friendly, still
    /// deterministic).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }

    /// Parses `text` as a single JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first offending byte for any
    /// syntax error, including trailing non-whitespace after the value.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at(pos, "trailing characters after value"));
        }
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// Appends `v` as a JSON number: shortest-roundtrip `Display`, `null`
/// when not finite.
pub fn write_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted JSON string, escaping `"`, `\`, the common
/// control characters and `\u00XX` for the rest of C0.
pub fn write_str(out: &mut String, s: &str) {
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

/// A JSON syntax error with the byte offset of the first bad character.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(JsonError::at(*pos, format!("expected {token:?}")))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::at(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError::at(*pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(JsonError::at(*pos, "expected ':' after object key"));
                }
                *pos += 1;
                pairs.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(JsonError::at(*pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError::at(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => out.push(parse_unicode_escape(bytes, pos)?),
                    _ => return Err(JsonError::at(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(JsonError::at(*pos, "raw control character in string"))
            }
            Some(_) => {
                // Advance one UTF-8 scalar; the input is a &str so the
                // boundary math is safe.
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xc0) == 0x80 {
                    *pos += 1;
                }
                match std::str::from_utf8(&bytes[start..*pos]) {
                    Ok(scalar) => out.push_str(scalar),
                    Err(_) => return Err(JsonError::at(start, "invalid UTF-8 in string")),
                }
            }
        }
    }
}

/// The four hex digits at `at`, if there are four.
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at + 4)?
        .iter()
        .try_fold(0, |acc, &b| Some(acc * 16 + char::from(b).to_digit(16)?))
}

/// Reads the `\u` escape whose `u` is at `*pos`, and the low half that
/// must follow a high surrogate, leaving `*pos` on the last hex digit.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, JsonError> {
    let start = *pos - 1;
    let high = hex4(bytes, *pos + 1).ok_or_else(|| JsonError::at(start, "bad \\u escape"))?;
    *pos += 4;
    let code = match high {
        0xd800..=0xdbff => {
            let low = Some(*pos + 1)
                .filter(|&at| bytes.get(at..at + 2) == Some(b"\\u".as_slice()))
                .and_then(|at| hex4(bytes, at + 2))
                .filter(|low| (0xdc00..=0xdfff).contains(low))
                .ok_or_else(|| JsonError::at(start, "unpaired surrogate in \\u escape"))?;
            *pos += 6;
            0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
        }
        0xdc00..=0xdfff => return Err(JsonError::at(start, "unpaired surrogate in \\u escape")),
        code => code,
    };
    char::from_u32(code).ok_or_else(|| JsonError::at(start, "bad \\u escape"))
}

/// Parses an RFC 8259 number, `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
/// Out-of-range magnitudes round to ±∞ (`1e999`), as `str::parse` does.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, JsonError> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let first = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > first
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_ok = match bytes.get(*pos) {
        Some(b'0') => {
            *pos += 1;
            true
        }
        Some(b'1'..=b'9') => digits(pos),
        _ => false,
    };
    let frac_ok = bytes.get(*pos) != Some(&b'.') || {
        *pos += 1;
        digits(pos)
    };
    let exp_ok = !matches!(bytes.get(*pos), Some(b'e' | b'E')) || {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        digits(pos)
    };
    let text = std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .filter(|_| int_ok && frac_ok && exp_ok)
        .ok_or_else(|| JsonError::at(start, "bad number"))?;
    text.parse::<f64>()
        .map_err(|_| JsonError::at(start, format!("bad number {text:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_compact_and_pretty() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("case1".into())),
            ("l2".into(), Json::Num(123456.75)),
            ("epe".into(), Json::int(3)),
            ("wall_ms".into(), Json::Null),
            (
                "values".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Bool(true), Json::Null]),
            ),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc);
        }
        assert!(doc
            .to_string_pretty()
            .contains("\"epe\": 3,\n  \"wall_ms\""));
        assert!(doc.to_string_pretty().ends_with("\"empty\": []\n}\n"));
    }

    #[test]
    fn serialization_is_deterministic() {
        let doc = Json::Obj(vec![
            ("b".into(), Json::Num(0.1)),
            ("a".into(), Json::Num(1e-9)),
        ]);
        assert_eq!(doc.to_string_pretty(), doc.to_string_pretty());
        // Insertion order is preserved, not sorted.
        assert!(doc.to_string_compact().starts_with("{\"b\""));
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for v in [0.1, 1.0 / 3.0, 1e300, -4.9e-324, 123_456_789.123_456_79] {
            let text = Json::Num(v).to_string_compact();
            assert_eq!(Json::parse(&text).unwrap().as_f64().unwrap(), v);
        }
    }

    #[test]
    fn accepts_every_number_form() {
        for (text, v) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("-12.5", -12.5),
            ("0.25", 0.25),
            ("1e3", 1e3),
            ("2E-2", 2e-2),
            ("1.5e+2", 150.0),
            ("1e999", f64::INFINITY),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_f64(), Some(v), "{text:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\":1,}",
            "nul",
            "1 2",
            "{\"a\" 1}",
            "\"unterminated",
            "[1] trailing",
            "{} x",
            "[1,]",
            "--5",
            // Numbers outside RFC 8259.
            "01",
            "-01",
            "[01]",
            "1.",
            "1.e5",
            "+1",
            ".5",
            "-",
            "1e",
            "1e+",
            "{\"size\":0128}",
            // `\u` takes exactly four hex digits, and surrogates pair.
            "\"\\u+041\"",
            "\"\\u04\"",
            "\"\\u004g\"",
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escapes_survive() {
        let doc = Json::Str("a\"b\\c\nd\te\u{0001}😀".into());
        let text = doc.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert_eq!(
            Json::parse("\"\\u0041\\ud83d\\ude00\\u00e9\"").unwrap(),
            Json::Str("A😀é".into())
        );
    }

    #[test]
    fn accessors() {
        let doc = Json::parse("{\"n\":4,\"s\":\"x\",\"a\":[1,2],\"f\":0.5}").unwrap();
        assert_eq!(doc.get("n").unwrap().as_usize(), Some(4));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 2);
        assert!(doc.get("missing").is_none());
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Num(2.5).as_usize(), None);
        assert_eq!(doc.usize_field("n"), Ok(4));
        assert_eq!(doc.str_field("s"), Ok("x"));
        assert_eq!(doc.f64_field("f"), Ok(0.5));
        assert_eq!(
            doc.str_field("n").unwrap_err(),
            "missing or non-string \"n\""
        );
        assert_eq!(
            doc.usize_field("f").unwrap_err(),
            "missing or non-integer \"f\""
        );
        assert_eq!(
            doc.f64_field("s").unwrap_err(),
            "missing or non-numeric \"s\""
        );
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }
}
