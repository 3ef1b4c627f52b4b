//! A vendored JSON value type: recursive-descent parser plus a
//! deterministic compact writer, and `JsonWriter`, the streaming form
//! of that writer that the wire encoders use to emit text without
//! building a value first.
//!
//! The repo already *writes* JSON in several places (figure exports,
//! `BENCH_baseline.json`, chrome://tracing dumps) but never had to read
//! it back. The lab daemon's wire protocol ([`crate::lab::wire`]) needs
//! both directions, so this module provides the one in-tree value type
//! both sides share. Like the rest of the vendored stack it is
//! deliberately small: strings, finite numbers, booleans, null, arrays,
//! and objects with **insertion-ordered** fields — order preservation is
//! what makes the writer deterministic and the protocol golden tests
//! byte-stable.
//!
//! Strings parse in linear time: each run of bytes between escapes is
//! copied with one `push_str`, so a long string at the daemon's body cap
//! costs milliseconds. Objects do too: duplicate keys are found through
//! a per-object hash index (see `KeyIndex`), so a 50,000-key object
//! costs milliseconds rather than the seconds a scan of the fields
//! parsed so far took.
//!
//! Numbers are `f64`. Integers up to 2^53 round-trip exactly, which
//! covers every counter the protocol carries; full-width `u64`
//! fingerprints travel as fixed-width 16-digit hex *strings* so no bits
//! are ever squeezed through a float.

use std::fmt::Write as _;
use std::hash::{BuildHasher, RandomState};

/// A parsed or under-construction JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite floats serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; fields keep insertion order (duplicates keep the last
    /// value on parse).
    Obj(Vec<(String, Json)>),
}

/// Where and why a parse failed. `line`/`col` are 1-based, in the same
/// convention as [`crate::script::Span`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the offending byte.
    pub line: u32,
    /// 1-based column of the offending byte.
    pub col: u32,
    /// What was expected or found.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse `src` as one JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    /// [`JsonError`] with the 1-based position of the first offending
    /// byte.
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        Parser::new(src).document()
    }

    /// Compact deterministic rendering: no whitespace, object fields in
    /// insertion order, floats via the same `{x}` formatting the report
    /// writers use. Written through the crate's streaming writer, which
    /// the wire encoders also use, so a tree and a stream of the same
    /// values render the same bytes.
    pub fn write(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_to(&mut w);
        w.finish()
    }

    fn write_to(&self, w: &mut JsonWriter) {
        match self {
            Json::Null => {
                w.null();
            }
            Json::Bool(b) => {
                w.bool(*b);
            }
            Json::Num(x) => {
                w.f64(*x);
            }
            Json::Str(s) => {
                w.str(s);
            }
            Json::Arr(items) => {
                w.begin_arr();
                for item in items {
                    item.write_to(w);
                }
                w.end_arr();
            }
            Json::Obj(fields) => {
                w.begin_obj();
                for (k, v) in fields {
                    w.key(k);
                    v.write_to(w);
                }
                w.end_obj();
            }
        }
    }

    /// An empty object to build with [`Json::set`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append (or replace) field `key`, preserving insertion order.
    /// Builder-style so wire encoders read as a field list.
    #[must_use]
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        let Json::Obj(fields) = &mut self else {
            panic!("Json::set on a non-object");
        };
        let value = value.into();
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => fields.push((key.to_string(), value)),
        }
        self
    }

    /// Field `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer (rejects
    /// fractions, negatives, and anything above 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        if (0.0..=9_007_199_254_740_992.0).contains(&x) && x.fract() == 0.0 {
            Some(x as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u32> for Json {
    fn from(x: u32) -> Json {
        Json::Num(f64::from(x))
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        debug_assert!(
            x <= 9_007_199_254_740_992,
            "u64 above 2^53 must travel as a hex string"
        );
        Json::Num(x as f64)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::from(x as u64)
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

/// Largest integer every `u64` below it shares with its `f64`: 2^53.
const MAX_EXACT_INT: u64 = 1 << 53;

/// A streaming compact JSON writer over one `String`: values go out as
/// they are produced, with no tree in between. It is the one
/// implementation of JSON text in the crate: [`Json::write`] renders
/// through it, so the escaper and the number formatting cannot fork.
///
/// The caller keeps the nesting well formed (every `begin_*` matched by
/// its `end_*`, a [`JsonWriter::key`] before each object value); the
/// writer places the commas. Numbers follow [`Json::Num`]: a float as
/// `{x}`, non-finite as `null`, and an integer as its `f64` would be, so
/// a `u64` above 2^53 is written rounded, exactly as the tree writes it.
#[derive(Debug, Default)]
pub(crate) struct JsonWriter {
    out: String,
    /// Whether the next key or value follows a sibling.
    comma: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub(crate) fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// An empty writer whose output already holds `bytes`: a caller that
    /// knows its size bound writes with one allocation.
    pub(crate) fn with_capacity(bytes: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(bytes),
            comma: false,
        }
    }

    /// The text written so far.
    pub(crate) fn finish(self) -> String {
        self.out
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    /// Open an object.
    pub(crate) fn begin_obj(&mut self) -> &mut JsonWriter {
        self.sep();
        self.out.push('{');
        self.comma = false;
        self
    }

    /// Close the innermost object.
    pub(crate) fn end_obj(&mut self) -> &mut JsonWriter {
        self.out.push('}');
        self.comma = true;
        self
    }

    /// Open an array.
    pub(crate) fn begin_arr(&mut self) -> &mut JsonWriter {
        self.sep();
        self.out.push('[');
        self.comma = false;
        self
    }

    /// Close the innermost array.
    pub(crate) fn end_arr(&mut self) -> &mut JsonWriter {
        self.out.push(']');
        self.comma = true;
        self
    }

    /// The key of the next object field; its value is written next.
    pub(crate) fn key(&mut self, key: &str) -> &mut JsonWriter {
        self.sep();
        write_escaped(&mut self.out, key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// A string value.
    pub(crate) fn str(&mut self, s: &str) -> &mut JsonWriter {
        self.sep();
        write_escaped(&mut self.out, s);
        self.comma = true;
        self
    }

    /// A float value: `{x}`, or `null` when not finite.
    pub(crate) fn f64(&mut self, x: f64) -> &mut JsonWriter {
        self.sep();
        write_f64(&mut self.out, x);
        self.comma = true;
        self
    }

    /// An integer value, written as `x as f64` would be: exact up to
    /// 2^53, rounded above.
    pub(crate) fn u64(&mut self, x: u64) -> &mut JsonWriter {
        self.sep();
        if x <= MAX_EXACT_INT {
            // an integral f64 up to 2^53 formats as this integer does
            let _ = write!(self.out, "{x}");
        } else {
            write_f64(&mut self.out, x as f64);
        }
        self.comma = true;
        self
    }

    /// A boolean value.
    pub(crate) fn bool(&mut self, b: bool) -> &mut JsonWriter {
        self.sep();
        self.out.push_str(if b { "true" } else { "false" });
        self.comma = true;
        self
    }

    /// `null`.
    pub(crate) fn null(&mut self) -> &mut JsonWriter {
        self.sep();
        self.out.push_str("null");
        self.comma = true;
        self
    }

    /// A full-width `u64` as a fixed 16-digit hex string — the wire
    /// form of [`crate::lab::PlanKey::fingerprint`] digests.
    pub(crate) fn fingerprint(&mut self, fp: u64) -> &mut JsonWriter {
        self.sep();
        let _ = write!(self.out, "\"{fp:016x}\"");
        self.comma = true;
        self
    }
}

/// `x` as a JSON number: `{x}`, or `null` when not finite.
fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// `s` as a quoted JSON string. Runs of bytes that need no escape are
/// copied whole; every escaped byte is ASCII, so a run never splits a
/// multi-byte scalar.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Nesting depth cap: protects the daemon from stack exhaustion on
/// adversarially deep documents (the protocol never nests past ~6).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Hashes object keys for duplicate detection. Keyed per document,
    /// so a client cannot pick keys that all land in one probe chain.
    keys: RandomState,
    /// Key comparisons made finding duplicates; the linearity test
    /// reads it.
    key_compares: u64,
}

/// The positions of one object's fields by key hash: open addressing
/// with linear probing, kept at most half full. Slots store the key's
/// hash, so a lookup compares key strings only on a hash match; an
/// object of n keys costs O(n) expected time whatever its duplicates.
#[derive(Default)]
struct KeyIndex {
    /// `(hash, position + 1)`; position 0 marks an empty slot.
    slots: Vec<(u64, usize)>,
}

impl KeyIndex {
    /// The position of `key` among `fields`, or `None` after noting that
    /// it is about to be pushed at `fields.len()`.
    fn find_or_insert(
        &mut self,
        fields: &[(String, Json)],
        hash: u64,
        key: &str,
        compares: &mut u64,
    ) -> Option<usize> {
        if 2 * (fields.len() + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                (_, 0) => {
                    self.slots[i] = (hash, fields.len() + 1);
                    return None;
                }
                (h, pos) if h == hash => {
                    *compares += 1;
                    if fields[pos - 1].0 == key {
                        return Some(pos - 1);
                    }
                }
                _ => {}
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the slot count (at least 8) and re-place every entry.
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        let len = (old.len() * 2).max(8);
        self.slots = vec![(0, 0); len];
        for (hash, pos) in old.into_iter().filter(|&(_, pos)| pos != 0) {
            let mut i = hash as usize & (len - 1);
            while self.slots[i].1 != 0 {
                i = (i + 1) & (len - 1);
            }
            self.slots[i] = (hash, pos);
        }
    }
}

impl Parser<'_> {
    fn new(src: &str) -> Parser<'_> {
        Parser {
            src,
            pos: 0,
            keys: RandomState::new(),
            key_compares: 0,
        }
    }

    /// One whole document: a value with optional surrounding whitespace.
    fn document(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let v = self.value(0)?;
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(self.error("trailing characters after document"));
        }
        Ok(v)
    }

    fn error(&self, msg: impl Into<String>) -> JsonError {
        let mut line = 1u32;
        let mut col = 1u32;
        for &b in &self.bytes()[..self.pos.min(self.src.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError {
            line,
            col,
            msg: msg.into(),
        }
    }

    fn bytes(&self) -> &[u8] {
        self.src.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
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
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("document nests too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of document")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes()[start..self.pos]).unwrap();
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(self.error(format!("malformed number '{text}'"))),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the maximal run of bytes that need no decoding in one
            // step. Every stop byte is ASCII, so the run ends on a char
            // boundary and slicing `src` cannot split a scalar.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
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
                            let hex = self
                                .bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("malformed \\u escape"))?;
                            // Surrogate pairs are out of protocol scope;
                            // lone surrogates decode to the replacement
                            // character rather than failing the document.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("malformed escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        let mut index = KeyIndex::default();
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
            let value = self.value(depth + 1)?;
            let hash = self.keys.hash_one(key.as_str());
            match index.find_or_insert(&fields, hash, &key, &mut self.key_compares) {
                // the last duplicate wins, at the first one's position
                Some(i) => fields[i].1 = value,
                None => fields.push((key, value)),
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
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
    fn round_trips_every_value_kind() {
        let src = r#"{"a":null,"b":true,"c":-1.5,"d":"x\ny","e":[1,2,[3]],"f":{"g":0}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.write(), src, "compact writer is the parser's inverse");
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("c").and_then(Json::as_f64), Some(-1.5));
        assert_eq!(v.get("d").and_then(Json::as_str), Some("x\ny"));
        assert_eq!(
            v.get("e").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn the_stream_writes_what_the_tree_writes() {
        let tree = Json::obj()
            .set("a", Json::obj())
            .set("b", Json::Arr(Vec::new()))
            .set(
                "c",
                Json::Arr(vec![Json::obj().set("k", "v\"\n"), Json::Null, 1.5.into()]),
            )
            .set("é\t", Json::Arr(vec![Json::Arr(vec![]), Json::obj()]))
            .set("n", f64::NAN)
            .set("z", -0.0);
        let mut w = JsonWriter::new();
        w.begin_obj()
            .key("a")
            .begin_obj()
            .end_obj()
            .key("b")
            .begin_arr()
            .end_arr()
            .key("c")
            .begin_arr()
            .begin_obj()
            .key("k")
            .str("v\"\n")
            .end_obj()
            .null()
            .f64(1.5)
            .end_arr()
            .key("é\t")
            .begin_arr()
            .begin_arr()
            .end_arr()
            .begin_obj()
            .end_obj()
            .end_arr()
            .key("n")
            .f64(f64::NAN)
            .key("z")
            .f64(-0.0)
            .end_obj();
        let text = w.finish();
        assert_eq!(text, tree.write());
        assert_eq!(
            text,
            r#"{"a":{},"b":[],"c":[{"k":"v\"\n"},null,1.5],"é\t":[[],{}],"n":null,"z":-0}"#
        );
    }

    #[test]
    fn stream_integers_are_written_as_their_f64() {
        for x in [0, 7, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let mut w = JsonWriter::new();
            w.u64(x);
            assert_eq!(w.finish(), Json::Num(x as f64).write(), "{x}");
        }
        let mut w = JsonWriter::new();
        w.begin_arr().fingerprint(0xab).bool(false).end_arr();
        assert_eq!(w.finish(), r#"["00000000000000ab",false]"#);
    }

    #[test]
    fn field_order_is_insertion_order() {
        let v = Json::obj().set("z", 1.0).set("a", 2.0).set("z", 3.0);
        assert_eq!(v.write(), r#"{"z":3,"a":2}"#);
    }

    #[test]
    fn whitespace_is_tolerated_everywhere() {
        let v = Json::parse(" {\n\t\"k\" :\r [ 1 , 2 ] , \"m\" : { } }\n").unwrap();
        assert_eq!(v.write(), r#"{"k":[1,2],"m":{}}"#);
    }

    #[test]
    fn errors_carry_line_and_column() {
        let e = Json::parse("{\"a\": 1,\n  oops}").unwrap_err();
        assert_eq!((e.line, e.col), (2, 3), "{e}");
        assert!(Json::parse("").is_err());
        assert!(Json::parse("[1,2] extra").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("1e999").is_err(), "non-finite numbers rejected");
    }

    #[test]
    fn deep_nesting_is_bounded_not_fatal() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        let e = Json::parse(&deep).unwrap_err();
        assert!(e.msg.contains("deep"), "{e}");
    }

    #[test]
    fn u64_integers_round_trip_exactly() {
        let v = Json::parse("9007199254740992").unwrap();
        assert_eq!(v.as_u64(), Some(9_007_199_254_740_992));
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn fingerprints_travel_as_fixed_width_hex() {
        let mut w = JsonWriter::new();
        w.fingerprint(0x00ab_cdef_0123_4567);
        let text = w.finish();
        assert_eq!(text, r#""00abcdef01234567""#);
        let j = Json::parse(&text).unwrap();
        let back = u64::from_str_radix(j.as_str().unwrap(), 16).unwrap();
        assert_eq!(back, 0x00ab_cdef_0123_4567);
    }

    #[test]
    fn escapes_cover_control_characters() {
        let v = Json::Str("a\"b\\c\u{1}\t".into());
        let s = v.write();
        assert_eq!(s, "\"a\\\"b\\\\c\\u0001\\t\"");
        assert_eq!(Json::parse(&s).unwrap(), v);
    }

    #[test]
    fn multi_byte_runs_survive_intact() {
        let v = Json::parse("[\"é𝄞 und é\",\"𝄞\"]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some("é𝄞 und é"));
        assert_eq!(items[1].as_str(), Some("𝄞"));
        assert_eq!(Json::parse(&v.write()).unwrap(), v);
    }

    #[test]
    fn escapes_directly_next_to_runs() {
        let v = Json::parse(r#""a\"b\\céd""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\céd"));
        let v = Json::parse(r#""\néx\t""#).unwrap();
        assert_eq!(v.as_str(), Some("\néx\t"));
        assert_eq!(Json::parse(r#""""#).unwrap().as_str(), Some(""));
    }

    #[test]
    fn control_byte_mid_run_reports_its_own_position() {
        // columns count bytes: `é` is two of them
        let e = Json::parse("[\n\"é\u{1}cd\"]").unwrap_err();
        assert_eq!((e.line, e.col), (2, 4), "{e}");
        assert_eq!(e.msg, "unescaped control character in string");
        let e = Json::parse("\"abc").unwrap_err();
        assert_eq!(
            (e.line, e.col, e.msg.as_str()),
            (1, 5, "unterminated string")
        );
    }

    #[test]
    fn the_last_duplicate_key_wins_at_the_first_position() {
        let v = Json::parse(r#"{"a":1,"b":2,"a":3,"c":4,"b":5,"a":6}"#).unwrap();
        assert_eq!(v.write(), r#"{"a":6,"b":5,"c":4}"#);
        // equal after unescaping is a duplicate
        let v = Json::parse(r#"{"k":1,"\u006b":2}"#).unwrap();
        assert_eq!(v.write(), r#"{"k":2}"#);
    }

    /// An object whose `n` distinct keys each appear twice, the repeats
    /// in reverse order, with the number of key comparisons its parse
    /// made.
    fn doubled_object_compares(n: usize) -> u64 {
        let keys: Vec<String> = (0..n).map(|i| format!("\"key{i}\":{i}")).collect();
        let repeats: Vec<String> = (0..n).rev().map(|i| format!("\"key{i}\":-{i}")).collect();
        let src = format!("{{{},{}}}", keys.join(","), repeats.join(","));
        let mut p = Parser::new(&src);
        let v = p.document().unwrap();
        let Json::Obj(fields) = &v else {
            panic!("an object parses to an object");
        };
        assert_eq!(fields.len(), n);
        assert_eq!(fields[n - 1].0, format!("key{}", n - 1), "first positions");
        assert_eq!(fields[n - 1].1, Json::Num(-((n - 1) as f64)), "last value");
        p.key_compares
    }

    #[test]
    fn wide_objects_find_duplicates_in_linear_key_comparisons() {
        // every repeat must meet its first occurrence once; hashing keeps
        // the rest away, so comparisons stay linear in the key count
        // where the old scan of the fields so far made n²/2 of them
        for n in [1_000, 4_000, 16_000] {
            let compares = doubled_object_compares(n);
            assert!(
                (n as u64..=2 * n as u64).contains(&compares),
                "{n} doubled keys took {compares} key comparisons"
            );
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 4 MiB of mixed one- and multi-byte text with an escape per
        // unit: linear parsing takes milliseconds; re-validating the
        // rest of the document per character took minutes
        const UNIT: &str = "ab𝄞é\\n";
        let units = (4 << 20) / UNIT.len();
        let src = format!("{{\"pad\":\"{}\",\"kind\":\"stats\"}}", UNIT.repeat(units));
        let t0 = std::time::Instant::now();
        let v = Json::parse(&src).unwrap();
        let took = t0.elapsed();
        assert!(took < std::time::Duration::from_secs(10), "{took:?}");
        let pad = v.get("pad").and_then(Json::as_str).unwrap();
        assert_eq!(pad.len(), units * (UNIT.len() - 1), "one escape per unit");
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("stats"));
    }
}
