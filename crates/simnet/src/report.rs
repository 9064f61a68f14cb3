//! Machine-readable campaign reports: a minimal, deterministic JSON model.
//!
//! The chaos-campaign engine ([`crate::campaign`]) records every run into a
//! JSON document that CI archives as a build artifact. Determinism is a hard
//! requirement — the same scenario and seed must produce **byte-identical**
//! reports across repeated runs — so the serializer is fully deterministic: object keys keep insertion
//! order, floats are rendered with a fixed precision, and nothing in the
//! value model depends on hashing or wall-clock time.
//!
//! The environment has no serde, so this module carries its own small value
//! model ([`Json`]), serializer ([`Json::render`]) and recursive-descent
//! parser ([`Json::parse`]); the parser is what `simctl diff` uses to read
//! reports back.
//!
//! ```
//! use simnet::Json;
//!
//! let doc = Json::obj()
//!     .field("scenario", "one-way-cut")
//!     .field("seed", 7u64)
//!     .field("converged", true);
//! let text = doc.render();
//! // Deterministic: same value, same bytes — and it round-trips.
//! assert_eq!(text, doc.render());
//! let parsed = Json::parse(&text).unwrap();
//! assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(7));
//! assert_eq!(parsed, doc);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order so that rendering is
/// deterministic and diff-friendly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counters, seeds, digests).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float, rendered with three decimal places.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Creates an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds (or replaces) a field on an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => {
                let value = value.into();
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    fields.push((key.to_string(), value));
                }
            }
            other => panic!("Json::field on non-object {other:?}"),
        }
        self
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` (for `UInt`, `Int` and `Float`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(u) => Some(*u as f64),
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// Renders the value as pretty-printed JSON with two-space indentation
    /// and a trailing newline. The output is byte-deterministic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                let _ = write!(out, "{f:.3}");
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
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
                    pad(out, indent + 1);
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    render_string(key, out);
                    out.push_str(": ");
                    value.render_into(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Numbers without a fraction or exponent parse
    /// as integers; everything else as floats.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::UInt(u)
    }
}

impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::UInt(u as u64)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
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
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
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
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences appear
                    // only inside strings).
                    let start = self.pos;
                    let rest =
                        std::str::from_utf8(&self.bytes[start..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("empty string tail")?;
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if fractional {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|e| e.to_string())
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|e| e.to_string())
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|e| e.to_string())
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
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

/// FNV-1a over a byte string: the digest primitive used for the
/// `state_digest` field of campaign reports. Deterministic and
/// platform-independent — never replace it with `DefaultHasher`, whose
/// output may change across Rust releases.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The FNV-1a offset basis: the starting value of an incremental
/// [`digest_lines`]-compatible fold.
pub(crate) const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one line (and the newline separator) into an in-progress FNV-1a
/// digest: the incremental step of [`digest_lines`]. Feeding the same lines
/// in the same order produces the same hash, which is what lets the
/// scheduler's dirty-set digest cache skip re-*formatting* unchanged lines
/// without ever changing the digest value.
pub(crate) fn fold_digest_line(hash: &mut u64, line: &str) {
    for b in line.as_bytes() {
        *hash ^= *b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    *hash ^= 0x0a;
    *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
}

/// Digests an iterator of labelled strings into one order-sensitive hash.
/// Callers feed per-process canonical state lines (sorted by process
/// identifier) to obtain a fingerprint comparable across runs.
pub fn digest_lines<I: IntoIterator<Item = String>>(lines: I) -> u64 {
    let mut hash: u64 = FNV_OFFSET_BASIS;
    for line in lines {
        fold_digest_line(&mut hash, &line);
    }
    hash
}

/// Renders `map` as a JSON object with keys in sorted order (helper for
/// callers aggregating counters).
pub fn obj_from_map(map: &BTreeMap<String, u64>) -> Json {
    let mut obj = Json::obj();
    for (k, v) in map {
        obj = obj.field(k, *v);
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_deterministic_and_parses_back() {
        let doc = Json::obj()
            .field("name", "chaos")
            .field("count", 3u64)
            .field("ratio", 0.5)
            .field("ok", true)
            .field("none", Json::Null)
            .field(
                "runs",
                Json::Arr(vec![
                    Json::obj().field("seed", 1u64),
                    Json::obj().field("seed", 2u64),
                ]),
            );
        let a = doc.render();
        let b = doc.render();
        assert_eq!(a, b);
        let parsed = Json::parse(&a).unwrap();
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("chaos"));
        assert_eq!(parsed.get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(parsed.get("ratio").and_then(Json::as_f64), Some(0.5));
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("runs").and_then(Json::as_arr).unwrap().len(), 2);
    }

    #[test]
    fn parses_the_bench_summary_shape() {
        let text = r#"{
            "bench": "sparse_traffic",
            "sparse_traffic": [
                {"processes": 64, "rounds": 64, "event_ms": 0.182, "baseline_ms": 1.2, "speedup": 6.6}
            ],
            "reconfig_1024": {"processes": 1024, "converged": true, "wall_ms": 28502.102}
        }"#;
        let doc = Json::parse(text).unwrap();
        let rows = doc.get("sparse_traffic").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[0].get("processes").and_then(Json::as_u64), Some(64));
        assert_eq!(rows[0].get("speedup").and_then(Json::as_f64), Some(6.6));
        assert_eq!(
            doc.get("reconfig_1024")
                .and_then(|r| r.get("converged"))
                .and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let doc = Json::Str("a\"b\\c\nd\tüé".to_string());
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn negative_and_float_numbers_parse() {
        let doc = Json::parse("[-3, 2.25, 1e2]").unwrap();
        let items = doc.as_arr().unwrap();
        assert_eq!(items[0], Json::Int(-3));
        assert_eq!(items[1], Json::Float(2.25));
        assert_eq!(items[2], Json::Float(100.0));
    }

    #[test]
    fn field_replaces_existing_key() {
        let doc = Json::obj().field("a", 1u64).field("a", 2u64);
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"chaos"), fnv1a(b"chaos"));
        assert_ne!(fnv1a(b"chaos"), fnv1a(b"order"));
        assert_ne!(
            digest_lines(["a".to_string(), "b".to_string()]),
            digest_lines(["ab".to_string()])
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }
}
