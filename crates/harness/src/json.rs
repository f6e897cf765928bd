//! Minimal JSON tree, emitter, and parser.
//!
//! The harness persists its ledger as JSON Lines. The workspace
//! deliberately has no `serde_json` dependency (it must build in
//! offline environments with no registry at all), and the payloads
//! involved are small machine-written records — so a ~300-line
//! self-contained implementation is the right tool: no reflection, no
//! derive, exact `u64` round-trips for cycle counters and hashes.
//!
//! Numbers are kept in three lanes (`U64`/`I64`/`F64`) so 64-bit
//! counters survive a round-trip exactly instead of being squeezed
//! through an `f64` mantissa.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Objects preserve insertion order (stable output makes
/// ledgers diffable).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer (exact).
    U64(u64),
    /// Negative integer (exact).
    I64(i64),
    /// Everything else numeric.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as an ordered list of key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53) => Some(v as u64),
            _ => None,
        }
    }

    /// The value as `usize`, if exactly representable.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as `f64` (any numeric lane).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises to a compact single-line string.
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write_to(&mut out);
        out
    }

    fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(v) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            Json::I64(v) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // `{:?}` prints a shortest round-trippable float and
                    // always includes a '.' or exponent.
                    let _ = fmt::Write::write_fmt(out, format_args!("{v:?}"));
                } else {
                    // JSON has no Inf/NaN; null is the standard fallback.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
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
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document from `input` (surrounding whitespace
/// allowed, trailing garbage rejected).
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            // Last duplicate key wins, matching common JSON parsers.
            if let Some(&i) = seen.get(&key) {
                pairs[i].1 = value;
            } else {
                seen.insert(key.clone(), pairs.len());
                pairs.push((key, value));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require a following
                                // \uXXXX low surrogate.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the maximal run of unescaped bytes as one
                    // slice (input is a &str, so boundaries are valid).
                    // Validating only the run keeps parsing linear in
                    // the document size.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            cp = cp * 16 + d;
            self.pos += 1;
        }
        Ok(cp)
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
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ascii");
        if text.is_empty() || text == "-" {
            return Err(self.err("malformed number"));
        }
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(v) = stripped.parse::<u64>() {
                    // i64::MIN's magnitude overflows i64; wrapping_neg
                    // maps it (and only it) back correctly.
                    if v <= i64::MIN.unsigned_abs() {
                        return Ok(Json::I64((v as i64).wrapping_neg()));
                    }
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) -> Json {
        parse(&v.to_line()).expect("round trip parse")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::U64(0),
            Json::U64(u64::MAX),
            Json::I64(-42),
            Json::I64(i64::MIN),
            Json::F64(1.5),
            Json::F64(-0.25),
            Json::str("hello"),
            Json::str(""),
        ] {
            assert_eq!(round_trip(&v), v, "{}", v.to_line());
        }
    }

    #[test]
    fn u64_counters_are_exact() {
        // 2^63 + 3 is not representable in f64; it must survive anyway.
        let v = Json::U64((1 << 63) + 3);
        assert_eq!(v.to_line(), "9223372036854775811");
        assert_eq!(round_trip(&v).as_u64(), Some((1 << 63) + 3));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let nasty = "a\"b\\c\nd\te\r\u{1}\u{7f}∂élta";
        let v = Json::str(nasty);
        let line = v.to_line();
        assert!(!line.contains('\n'), "JSONL values must stay on one line");
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""Aé""#).unwrap(), Json::str("Aé"));
        // Surrogate pair: U+1F600.
        assert_eq!(parse(r#""😀""#).unwrap(), Json::str("😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone surrogate rejected");
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj([
            ("name", Json::str("QE/Proteus")),
            ("hash", Json::str("0xdeadbeef")),
            ("cycles", Json::U64(123_456_789)),
            ("ratio", Json::F64(0.5)),
            ("tags", Json::Arr(vec![Json::str("a"), Json::Null, Json::U64(7)])),
            ("nested", Json::obj([("ok", Json::Bool(true))])),
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = Json::obj([("z", Json::U64(1)), ("a", Json::U64(2))]);
        assert_eq!(v.to_line(), r#"{"z":1,"a":2}"#);
        assert_eq!(v.get("a"), Some(&Json::U64(2)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Json::U64(2)));
    }

    #[test]
    fn whitespace_tolerated_garbage_rejected() {
        assert!(parse("  { \"a\" : [ 1 , 2 ] }\n").is_ok());
        assert!(parse("{}extra").is_err());
        assert!(parse("").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("-").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn non_finite_floats_serialise_as_null() {
        assert_eq!(Json::F64(f64::NAN).to_line(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_line(), "null");
    }

    #[test]
    fn accessor_lanes() {
        assert_eq!(Json::U64(5).as_f64(), Some(5.0));
        assert_eq!(Json::F64(5.0).as_u64(), Some(5));
        assert_eq!(Json::F64(5.5).as_u64(), None);
        assert_eq!(Json::I64(-1).as_u64(), None);
        assert_eq!(Json::str("x").as_u64(), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Arr(vec![]).as_arr().map(<[Json]>::len), Some(0));
    }
}
