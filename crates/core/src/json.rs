//! The crate's JSON: one pull tokenizer that everything reading JSON
//! goes through, one streaming writer that everything writing JSON goes
//! through, and a small value type between them.
//!
//! - **Reading.** A private tokenizer yields tokens from the text and
//!   builds nothing; it checks the grammar as it goes and reports the
//!   first syntax error with its `line:col`. [`Json::parse`] builds a tree
//!   from its tokens. The lab's request decoder builds none: it checks a
//!   document in one pass while keeping the text of the fields a
//!   `Schema` names (`read_document`), then reads those as `Raw` values.
//! - **Writing.** `JsonWriter` streams compact text into one `String`;
//!   [`Json::write`], the wire encoders, and the figure, table and trace
//!   exports all write through it, so there is one escaper and one
//!   number formatter.
//! - **Values.** [`Json`] holds strings, finite numbers, booleans, null,
//!   arrays, and objects with **insertion-ordered** fields — order
//!   preservation is what makes the writer deterministic and the
//!   protocol golden tests byte-stable.
//!
//! Strings read in linear time: runs of bytes between escapes are
//! skipped whole, so a long string at the daemon's body cap costs
//! milliseconds. Objects do too: the tree finds duplicate keys through a
//! per-object hash index (see `KeyIndex`), and the request decoder keeps
//! no keys but the few its schema names, so a 150,000-key object costs
//! milliseconds rather than the seconds a scan of the fields read so far
//! took.
//!
//! Numbers are `f64`. Integers up to 2^53 round-trip exactly, which
//! covers every counter the protocol carries; full-width `u64`
//! fingerprints travel as fixed-width 16-digit hex *strings* so no bits
//! are ever squeezed through a float.

use std::borrow::Cow;
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
        parse_tree(src, &mut 0).map_err(|fault| fault.report(src))
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
        self.as_f64().and_then(exact_u64)
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

/// `x` as an exact unsigned integer: `None` for fractions, negatives and
/// anything above 2^53. `4.0`, `1e3` and `-0` are integers.
fn exact_u64(x: f64) -> Option<u64> {
    ((0.0..=MAX_EXACT_INT as f64).contains(&x) && x.fract() == 0.0).then_some(x as u64)
}

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
            write_u64(&mut self.out, x);
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

/// `x` in decimal, digit by digit, with no formatter in between.
fn write_u64(out: &mut String, mut x: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// `s` as a quoted JSON string. Runs of bytes that need no escape are
/// found eight at a time by the decoder's [`plain_run`] and copied
/// whole; every escaped byte is ASCII, so a run never splits a
/// multi-byte scalar.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let bytes = s.as_bytes();
    let mut at = 0;
    loop {
        let run = plain_run(&bytes[at..]);
        out.push_str(&s[at..at + run]);
        at += run;
        let Some(&b) = bytes.get(at) else { break };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            // the other control bytes, as `\u00xx`
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        at += 1;
    }
    out.push('"');
}

/// Nesting depth cap: protects the daemon from adversarially deep
/// documents (the protocol never nests past ~6). A value may sit at depth
/// 64 at most, the root value being at depth 0.
const MAX_DEPTH: usize = 64;

/// One token of a JSON document, borrowed from its text.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'a> {
    BeginObj,
    EndObj,
    BeginArr,
    EndArr,
    /// An object key; its value is the next value.
    Key(JsonStr<'a>),
    Str(JsonStr<'a>),
    Num(f64),
    Bool(bool),
    Null,
    /// The document is complete: only whitespace followed its root value.
    End,
}

/// A syntax error as the tokenizer finds it: where, and why. It is a
/// small value while it travels up the reader; [`Fault::report`] turns it
/// into the [`JsonError`] a caller sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fault {
    /// The offending byte's offset.
    at: usize,
    why: Why,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Why {
    TooDeep,
    Unexpected(u8),
    EndOfDocument,
    Expected(u8),
    Literal(&'static str),
    /// A number that starts at `start` and ends at the fault.
    Number {
        start: usize,
    },
    Unterminated,
    UnicodeEscape,
    Escape,
    Control,
    ObjectSeparator,
    ArraySeparator,
    Trailing,
}

impl Fault {
    /// The error in `src` as reported: its 1-based `line:col` and message.
    #[cold]
    fn report(self, src: &str) -> JsonError {
        let mut line = 1u32;
        let mut col = 1u32;
        for &b in &src.as_bytes()[..self.at.min(src.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        let msg = match self.why {
            Why::TooDeep => "document nests too deeply".to_string(),
            Why::Unexpected(c) => format!("unexpected character '{}'", c as char),
            Why::EndOfDocument => "unexpected end of document".to_string(),
            Why::Expected(b) => format!("expected '{}'", b as char),
            Why::Literal(word) => format!("expected '{word}'"),
            Why::Number { start } => format!("malformed number '{}'", &src[start..self.at]),
            Why::Unterminated => "unterminated string".to_string(),
            Why::UnicodeEscape => "malformed \\u escape".to_string(),
            Why::Escape => "malformed escape".to_string(),
            Why::Control => "unescaped control character in string".to_string(),
            Why::ObjectSeparator => "expected ',' or '}' in object".to_string(),
            Why::ArraySeparator => "expected ',' or ']' in array".to_string(),
            Why::Trailing => "trailing characters after document".to_string(),
        };
        JsonError { line, col, msg }
    }
}

/// What the tokenizer reads next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Next {
    /// The root value.
    Root,
    /// The first item of an array just opened, or its `]`.
    FirstItem,
    /// The first key of an object just opened, or its `}`.
    FirstKey,
    /// The `:` after a key, then the field's value.
    Colon,
    /// After a value in a container: `,` or the container's closer.
    Sep,
    /// After the root value: nothing but whitespace.
    End,
}

/// The pull tokenizer: the crate's one JSON reader. Each call to `next`
/// yields the next token and checks the grammar as it goes, with no tree
/// and no allocation; a string token borrows its still-escaped text from
/// the source.
///
/// The first syntax error comes back, as a [`Fault`], from the call that
/// reaches it: the depth cap, malformed or non-finite numbers, bad
/// escapes, control characters in strings, a missing separator, and
/// trailing characters after the root value.
#[derive(Debug, Clone)]
struct Tokens<'a> {
    src: &'a str,
    pos: usize,
    /// Where the token last returned starts.
    start: usize,
    /// One bit per open container, the innermost lowest: set for an
    /// object. The depth cap keeps at most 65 open.
    stack: u128,
    depth: usize,
    next: Next,
}

// `next` is inlined into the few loops that pull tokens, and each step a
// token passes through is inlined into `next` from one place
// (`#[inline(always)]`): left to the compiler, a token cost about twice
// as much, and an inlined step reached from several places multiplied
// the code.
impl<'a> Tokens<'a> {
    fn new(src: &'a str) -> Tokens<'a> {
        Tokens {
            src,
            pos: 0,
            start: 0,
            stack: 0,
            depth: 0,
            next: Next::Root,
        }
    }

    #[inline(always)]
    fn next(&mut self) -> Result<Token<'a>, Fault> {
        self.skip_ws();
        // settle what the state lets come next, then read it: a key or a
        // value, each from one place
        let key = match self.next {
            Next::Root => false,
            Next::FirstItem if self.peek() == Some(b']') => return Ok(self.close(Token::EndArr)),
            Next::FirstItem => false,
            Next::FirstKey if self.peek() == Some(b'}') => return Ok(self.close(Token::EndObj)),
            Next::FirstKey => true,
            Next::Colon => {
                self.expect(b':')?;
                self.skip_ws();
                false
            }
            Next::Sep => {
                let in_object = self.stack & 1 == 1;
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        self.skip_ws();
                        in_object
                    }
                    Some(b'}') if in_object => return Ok(self.close(Token::EndObj)),
                    Some(b']') if !in_object => return Ok(self.close(Token::EndArr)),
                    _ if in_object => return Err(self.fault(Why::ObjectSeparator)),
                    _ => return Err(self.fault(Why::ArraySeparator)),
                }
            }
            Next::End if self.pos == self.src.len() => return Ok(Token::End),
            Next::End => return Err(self.fault(Why::Trailing)),
        };
        if key {
            self.key()
        } else {
            self.value()
        }
    }

    /// The rest of the value whose first token `first` was just read:
    /// every token of it checked and none kept.
    #[inline(always)]
    fn finish_value(&mut self, first: Token<'a>) -> Result<Raw<'a>, Fault> {
        let start = self.start;
        if matches!(first, Token::BeginObj | Token::BeginArr) {
            self.skip_container()?;
        }
        Ok(Raw {
            text: &self.src[start..self.pos],
            first,
        })
    }

    /// Reads on past the end of the container just opened.
    fn skip_container(&mut self) -> Result<(), Fault> {
        let outer = self.depth - 1;
        while self.depth > outer {
            self.next()?;
        }
        Ok(())
    }

    /// The next value, whole.
    #[inline(always)]
    fn read_value(&mut self) -> Result<Raw<'a>, Fault> {
        let first = self.next()?;
        self.finish_value(first)
    }

    /// Reads the next value whole. If it is an object, the value of each
    /// field `schema` names lands in that field's slot (the last value
    /// where a name repeats), and a field with a nested schema has its
    /// object value read the same way into its block of slots. Other
    /// fields are checked but their keys are not kept.
    fn read_object(
        &mut self,
        schema: &Schema,
        slots: &mut [Option<Raw<'a>>],
    ) -> Result<Raw<'a>, Fault> {
        let first = self.next()?;
        if first != Token::BeginObj {
            return self.finish_value(first);
        }
        let start = self.start;
        let names = schema.names;
        // the name after the last found is tried first, so fields in the
        // schema's order cost one comparison each
        let mut hint = 0;
        while let Token::Key(key) = self.next()? {
            let found = match names.get(hint) {
                Some(name) if key.eq_str(name) => Some(hint),
                _ => names.iter().position(|name| key.eq_str(name)),
            };
            let value = match found.and_then(|i| schema.nested_at(i).map(|n| (i, n))) {
                Some((i, (at, nested))) => {
                    let repeated = slots[i].is_some();
                    let block = &mut slots[at..at + nested.slots()];
                    if repeated {
                        // a repeated field forgets its earlier value's fields
                        block.fill(None);
                    }
                    self.read_object(nested, block)?
                }
                None => self.read_value()?,
            };
            if let Some(i) = found {
                slots[i] = Some(value);
                hint = i + 1;
            }
        }
        Ok(Raw {
            text: &self.src[start..self.pos],
            first,
        })
    }

    /// A value starts here, at the depth of the containers now open.
    #[inline(always)]
    fn value(&mut self) -> Result<Token<'a>, Fault> {
        if self.depth > MAX_DEPTH {
            return Err(self.fault(Why::TooDeep));
        }
        self.start = self.pos;
        let token = match self.peek() {
            Some(b'{') => return Ok(self.open(true)),
            Some(b'[') => return Ok(self.open(false)),
            Some(b'"') => Token::Str(self.string()?),
            Some(b't') => self.literal("true", Token::Bool(true))?,
            Some(b'f') => self.literal("false", Token::Bool(false))?,
            Some(b'n') => self.literal("null", Token::Null)?,
            Some(b'-' | b'0'..=b'9') => self.number()?,
            Some(c) => return Err(self.fault(Why::Unexpected(c))),
            None => return Err(self.fault(Why::EndOfDocument)),
        };
        self.after_value();
        Ok(token)
    }

    #[inline(always)]
    fn key(&mut self) -> Result<Token<'a>, Fault> {
        self.start = self.pos;
        let key = self.string()?;
        self.next = Next::Colon;
        Ok(Token::Key(key))
    }

    fn open(&mut self, object: bool) -> Token<'a> {
        self.pos += 1;
        self.stack = self.stack << 1 | u128::from(object);
        self.depth += 1;
        if object {
            self.next = Next::FirstKey;
            Token::BeginObj
        } else {
            self.next = Next::FirstItem;
            Token::BeginArr
        }
    }

    fn close(&mut self, token: Token<'a>) -> Token<'a> {
        self.start = self.pos;
        self.pos += 1;
        self.stack >>= 1;
        self.depth -= 1;
        self.after_value();
        token
    }

    fn after_value(&mut self) {
        self.next = if self.depth == 0 {
            Next::End
        } else {
            Next::Sep
        };
    }

    fn fault(&self, why: Why) -> Fault {
        Fault { at: self.pos, why }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Fault> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fault(Why::Expected(b)))
        }
    }

    fn literal(&mut self, word: &'static str, token: Token<'a>) -> Result<Token<'a>, Fault> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.fault(Why::Literal(word)))
        }
    }

    #[inline(always)]
    fn number(&mut self) -> Result<Token<'a>, Fault> {
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
        let text = &self.src[start..self.pos];
        // up to 15 digits is below 2^53, so the integer is the number
        if text.len() <= 15 && text.bytes().all(|b| b.is_ascii_digit()) {
            let int = text.bytes().fold(0, |n, b| n * 10 + u64::from(b - b'0'));
            return Ok(Token::Num(int as f64));
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Token::Num(x)),
            _ => Err(self.fault(Why::Number { start })),
        }
    }

    /// A string, checked and left escaped. Runs of bytes that need no
    /// decoding are skipped whole, so a long string costs linear time.
    #[inline(always)]
    fn string(&mut self) -> Result<JsonStr<'a>, Fault> {
        self.expect(b'"')?;
        let begin = self.pos;
        let mut escaped = false;
        loop {
            self.pos += plain_run(&self.src.as_bytes()[self.pos..]);
            match self.peek() {
                None => return Err(self.fault(Why::Unterminated)),
                Some(b'"') => {
                    // every stop byte is ASCII, so `begin..pos` cannot
                    // split a scalar
                    let raw = &self.src[begin..self.pos];
                    self.pos += 1;
                    return Ok(JsonStr { raw, escaped });
                }
                Some(b'\\') => {
                    escaped = true;
                    self.pos += 1;
                    match escape(self.src, self.pos) {
                        Ok((_, len)) => self.pos += len,
                        Err(why) => return Err(self.fault(why)),
                    }
                }
                Some(_) => return Err(self.fault(Why::Control)),
            }
        }
    }
}

/// How many bytes at the start of `bytes` a string copies as they are:
/// those before the first `"`, `\` or control byte. Eight bytes are
/// tested at a time: a byte's high bit is set in `stops` where it equals
/// a quote or backslash (its XOR with one is zero) or is below 0x20. A
/// subtraction's borrow can set a false flag only above a true one, so
/// the lowest flag is the first stop.
#[inline(always)]
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let below = |x: u64, n: u64| x.wrapping_sub(ONES * n) & !x;
    let mut run = 0;
    while let Some(chunk) = bytes.get(run..run + 8) {
        let x = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let quote = x ^ (ONES * u64::from(b'"'));
        let backslash = x ^ (ONES * u64::from(b'\\'));
        let stops = (below(quote, 1) | below(backslash, 1) | below(x, 0x20)) & HIGH;
        if stops != 0 {
            return run + stops.trailing_zeros() as usize / 8;
        }
        run += 8;
    }
    let tail = bytes[run..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
    run + tail.unwrap_or(bytes.len() - run)
}

/// The escape whose letter is at `at`, just past a backslash: the char it
/// stands for and its length from the letter on.
fn escape(src: &str, at: usize) -> Result<(char, usize), Why> {
    let bytes = src.as_bytes();
    let c = match bytes.get(at) {
        Some(b'"') => '"',
        Some(b'\\') => '\\',
        Some(b'/') => '/',
        Some(b'n') => '\n',
        Some(b'r') => '\r',
        Some(b't') => '\t',
        Some(b'b') => '\u{8}',
        Some(b'f') => '\u{c}',
        Some(b'u') => {
            let hex = bytes
                .get(at + 1..at + 5)
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(|h| u32::from_str_radix(h, 16).ok())
                .ok_or(Why::UnicodeEscape)?;
            // Surrogate pairs are out of protocol scope; lone surrogates
            // decode to the replacement character rather than failing the
            // document.
            return Ok((char::from_u32(hex).unwrap_or('\u{fffd}'), 5));
        }
        _ => return Err(Why::Escape),
    };
    Ok((c, 1))
}

/// A string's text between its quotes, as written: checked, not yet
/// unescaped. It compares and converts as the unescaped text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct JsonStr<'a> {
    raw: &'a str,
    /// Whether `raw` holds any escape.
    escaped: bool,
}

impl<'a> JsonStr<'a> {
    /// Calls `f` with each piece of the unescaped text in order: the runs
    /// between escapes, and each escape's char.
    fn for_each_piece(self, mut f: impl FnMut(&str)) {
        let mut rest = self.raw;
        if self.escaped {
            while let Some(i) = rest.find('\\') {
                f(&rest[..i]);
                let (c, len) = escape(rest, i + 1).expect(CHECKED);
                f(c.encode_utf8(&mut [0; 4]));
                rest = &rest[i + 1 + len..];
            }
        }
        f(rest);
    }

    /// Whether the unescaped text is `s`.
    #[inline]
    pub(crate) fn eq_str(self, s: &str) -> bool {
        if !self.escaped {
            return self.raw == s;
        }
        let mut rest = Some(s);
        self.for_each_piece(|piece| rest = rest.and_then(|r| r.strip_prefix(piece)));
        rest == Some("")
    }

    /// The unescaped text, borrowed from the source when it has no escape.
    pub(crate) fn to_cow(self) -> Cow<'a, str> {
        if !self.escaped {
            return Cow::Borrowed(self.raw);
        }
        let mut out = String::with_capacity(self.raw.len());
        self.for_each_piece(|piece| out.push_str(piece));
        Cow::Owned(out)
    }
}

/// Why a `Raw` read cannot fail: its document was checked whole first.
const CHECKED: &str = "the document was checked whole before any part of it was read";

/// The fields a reader keeps from an object, by name, and the fields
/// whose object values it reads the same way in the same pass.
///
/// A read fills one slot per name, in the order of `names`, then each
/// nested schema's slots in the order of `nested`: [`Schema::slots`] in
/// all.
#[derive(Debug)]
pub(crate) struct Schema {
    names: &'static [&'static str],
    /// `(field, schema)`: the index in `names` of a field whose object
    /// value is read with `schema`.
    nested: &'static [(usize, &'static Schema)],
}

impl Schema {
    pub(crate) const fn new(
        names: &'static [&'static str],
        nested: &'static [(usize, &'static Schema)],
    ) -> Schema {
        Schema { names, nested }
    }

    /// The slots a read with this schema fills.
    pub(crate) const fn slots(&self) -> usize {
        let mut slots = self.names.len();
        let mut i = 0;
        while i < self.nested.len() {
            slots += self.nested[i].1.slots();
            i += 1;
        }
        slots
    }

    /// Where the slots of field `field`'s nested schema start, and that
    /// schema.
    fn nested_at(&self, field: usize) -> Option<(usize, &'static Schema)> {
        let k = self.nested.iter().position(|&(f, _)| f == field)?;
        let before = self.nested[..k].iter().map(|(_, schema)| schema.slots());
        Some((self.names.len() + before.sum::<usize>(), self.nested[k].1))
    }
}

/// Reads `src` as one JSON document, checking all of it, and keeps the
/// fields of its root object that `schema` names in `slots`, which start
/// empty: where a name is absent, or the root is not an object, its slot
/// stays `None`. Nothing is allocated.
///
/// # Errors
/// The document's first syntax error, as [`Json::parse`] reports it.
pub(crate) fn read_document<'s, 'a>(
    src: &'a str,
    schema: &'static Schema,
    slots: &'s mut [Option<Raw<'a>>],
) -> Result<Fields<'s, 'a>, JsonError> {
    let mut tokens = Tokens::new(src);
    let read = tokens
        .read_object(schema, slots)
        .and_then(|_| tokens.next());
    read.map_err(|fault| fault.report(src))?;
    Ok(Fields { schema, slots })
}

/// An object's fields as a read with `schema` kept them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fields<'s, 'a> {
    schema: &'static Schema,
    slots: &'s [Option<Raw<'a>>],
}

impl<'s, 'a> Fields<'s, 'a> {
    /// The value of each field the schema names, in its order.
    pub(crate) fn values<const N: usize>(self) -> [Option<Raw<'a>>; N] {
        assert_eq!(N, self.schema.names.len(), "one value per name");
        self.slots[..N].try_into().expect("N slots")
    }

    /// The fields of field `name`'s object value, read with its nested
    /// schema: all `None` if the value is not an object.
    pub(crate) fn nested(self, name: &str) -> Fields<'s, 'a> {
        let field = self.schema.names.iter().position(|&n| n == name);
        let (at, schema) = field
            .and_then(|f| self.schema.nested_at(f))
            .expect("the schema reads this field's object");
        Fields {
            schema,
            slots: &self.slots[at..at + schema.slots()],
        }
    }
}

/// One value of a document that [`read_document`] checked whole: its text
/// and its first token. A scalar is read from that token; an array or
/// object is tokenized again from its text. Nothing is built and no read
/// can fail; a read of the wrong type is `None`, as on [`Json`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Raw<'a> {
    text: &'a str,
    first: Token<'a>,
}

impl<'a> Raw<'a> {
    /// Reads this value's fields as [`read_document`] reads a root
    /// object's, into `slots`, which start empty.
    pub(crate) fn read<'s>(
        self,
        schema: &'static Schema,
        slots: &'s mut [Option<Raw<'a>>],
    ) -> Fields<'s, 'a> {
        if self.first == Token::BeginObj {
            Tokens::new(self.text)
                .read_object(schema, slots)
                .expect(CHECKED);
        }
        Fields { schema, slots }
    }

    /// The items, if this is an array.
    pub(crate) fn items(self) -> Option<Items<'a>> {
        let mut tokens = Tokens::new(self.text);
        (tokens.next().expect(CHECKED) == Token::BeginArr).then_some(Items(tokens))
    }

    /// The string, if this is one.
    pub(crate) fn as_str(self) -> Option<JsonStr<'a>> {
        match self.first {
            Token::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub(crate) fn as_f64(self) -> Option<f64> {
        match self.first {
            Token::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer, by [`Json::as_u64`]'s rule.
    pub(crate) fn as_u64(self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// The boolean, if this is one.
    pub(crate) fn as_bool(self) -> Option<bool> {
        match self.first {
            Token::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub(crate) fn is_null(self) -> bool {
        self.first == Token::Null
    }
}

/// The items of a [`Raw`] array, each read whole in turn.
#[derive(Debug, Clone)]
pub(crate) struct Items<'a>(Tokens<'a>);

impl<'a> Iterator for Items<'a> {
    type Item = Raw<'a>;

    fn next(&mut self) -> Option<Raw<'a>> {
        let first = self.0.next().expect(CHECKED);
        if matches!(first, Token::EndArr | Token::End) {
            return None;
        }
        Some(self.0.finish_value(first).expect(CHECKED))
    }
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

/// A container of the tree under construction.
enum Frame {
    Arr(Vec<Json>),
    /// The fields so far, their index, and the key of the value to come.
    Obj(Vec<(String, Json)>, KeyIndex, String),
}

/// `src` as a tree built from its tokens, counting the key comparisons
/// made finding duplicate keys (the linearity test reads them). Keys are
/// hashed with a `RandomState` of this document's own, so a client cannot
/// pick keys that all land in one probe chain.
fn parse_tree(src: &str, key_compares: &mut u64) -> Result<Json, Fault> {
    let keys = RandomState::new();
    let mut tokens = Tokens::new(src);
    let mut stack: Vec<Frame> = Vec::new();
    loop {
        let value = match tokens.next()? {
            Token::BeginArr => {
                stack.push(Frame::Arr(Vec::new()));
                continue;
            }
            Token::BeginObj => {
                stack.push(Frame::Obj(Vec::new(), KeyIndex::default(), String::new()));
                continue;
            }
            Token::Key(key) => {
                if let Some(Frame::Obj(_, _, next_key)) = stack.last_mut() {
                    *next_key = key.to_cow().into_owned();
                }
                continue;
            }
            Token::EndArr | Token::EndObj => match stack.pop() {
                Some(Frame::Arr(items)) => Json::Arr(items),
                Some(Frame::Obj(fields, ..)) => Json::Obj(fields),
                None => unreachable!("the tokenizer matches brackets"),
            },
            Token::Str(s) => Json::Str(s.to_cow().into_owned()),
            Token::Num(x) => Json::Num(x),
            Token::Bool(b) => Json::Bool(b),
            Token::Null => Json::Null,
            Token::End => unreachable!("the root value comes before the end"),
        };
        match stack.last_mut() {
            None => {
                tokens.next()?;
                return Ok(value);
            }
            Some(Frame::Arr(items)) => items.push(value),
            Some(Frame::Obj(fields, index, next_key)) => {
                let key = std::mem::take(next_key);
                let hash = keys.hash_one(key.as_str());
                match index.find_or_insert(fields, hash, &key, key_compares) {
                    // the last duplicate wins, at the first one's position
                    Some(i) => fields[i].1 = value,
                    None => fields.push((key, value)),
                }
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
    fn plain_runs_stop_at_the_first_quote_backslash_or_control_byte() {
        let naive = |b: &[u8]| {
            let stop = b.iter().position(|&c| c == b'"' || c == b'\\' || c < 0x20);
            stop.unwrap_or(b.len())
        };
        // neighbours of the stop bytes, and bytes with the high bit set
        let fill = [0x20, b'!', b'#', b'[', b']', 0x7f, 0x80, 0xff];
        for stop in [b'"', b'\\', 0x00, b'\n', 0x1f] {
            for len in 0..26 {
                for at in 0..=len {
                    let mut bytes: Vec<u8> = (0..len).map(|i| fill[i % fill.len()]).collect();
                    if at < len {
                        bytes[at] = stop;
                    }
                    if at + 3 < len {
                        bytes[at + 3] = b'"';
                    }
                    assert_eq!(plain_run(&bytes), naive(&bytes), "{bytes:?}");
                }
            }
        }
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
        let mut compares = 0;
        let v = parse_tree(&src, &mut compares).unwrap();
        let Json::Obj(fields) = &v else {
            panic!("an object parses to an object");
        };
        assert_eq!(fields.len(), n);
        assert_eq!(fields[n - 1].0, format!("key{}", n - 1), "first positions");
        assert_eq!(fields[n - 1].1, Json::Num(-((n - 1) as f64)), "last value");
        compares
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
