//! A minimal JSON reader and writer.
//!
//! The pipeline emits machine-readable `CompilationReport`s and the
//! serve front end (`raco-serve`) reads newline-delimited JSON
//! requests; a full serde dependency is not warranted (and not
//! available offline) for either direction. Every document raco writes
//! goes through one streaming [`Writer`], which owns the output format:
//! field order is the order of the calls, strings are escaped, there
//! are no trailing commas, and the output is compact or indented. The
//! order-preserving value tree [`Json`] is what the recursive-descent
//! parser ([`Json::parse`]) returns, with the accessors a protocol
//! handler needs ([`Json::get`], [`Json::as_str`], …); a parsed value
//! that is forwarded into a document goes through [`Writer::value`].

use std::fmt;
use std::fmt::Write as _;

/// An order-preserving JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Signed integer (rendered without decimal point).
    Int(i64),
    /// Unsigned integer (rendered without decimal point).
    UInt(u64),
    /// Finite float; non-finite values render as `null` per RFC 8259.
    Num(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Parses one complete JSON value (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// Integral numbers without exponent or fraction parse as
    /// [`Json::Int`] / [`Json::UInt`]; everything else numeric parses
    /// as [`Json::Num`]. Objects keep key order and duplicate keys
    /// ([`Json::get`] returns the first).
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] (with a byte offset) on malformed
    /// input or nesting deeper than 128 levels.
    ///
    /// ```
    /// use raco_driver::json::Json;
    ///
    /// let value = Json::parse(r#"{"op": "compile", "iterations": 16}"#)?;
    /// assert_eq!(value.get("op").and_then(Json::as_str), Some("compile"));
    /// assert_eq!(value.get("iterations").and_then(Json::as_u64), Some(16));
    /// assert!(Json::parse("{\"unterminated\": ").is_err());
    /// # Ok::<(), raco_driver::json::JsonParseError>(())
    /// ```
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the value"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object (first match); `None` for missing
    /// keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer in range (floats are
    /// accepted when they are exact integers, as parsers for other
    /// languages often produce `16.0`).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) => u64::try_from(i).ok(),
            // `u64::MAX as f64` rounds up to 2^64, so the bound must be
            // exclusive: every integral f64 below it converts exactly.
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64 => Some(n as u64),
            _ => None,
        }
    }

    /// The value as an `i64`, under the same rules as
    /// [`as_u64`](Self::as_u64).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(i) => Some(i),
            Json::UInt(u) => i64::try_from(u).ok(),
            // `i64::MAX as f64` rounds up to 2^63 (exclusive bound);
            // `i64::MIN as f64` is exactly -2^63 (inclusive is right).
            Json::Num(n) if n.fract() == 0.0 && n >= i64::MIN as f64 && n < i64::MAX as f64 => {
                Some(n as i64)
            }
            _ => None,
        }
    }

    /// Renders compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        Writer::compact(&mut out).value(self);
        out
    }
}

/// A streaming JSON writer that appends one value to a `String`.
///
/// It is the one place that owns separators, indentation, number format
/// and string escaping: reports, serve replies and payloads, and the
/// loadgen, fuzz and trajectory files write their fields straight into
/// it, and [`Json::render`] walks a parsed tree through it. Containers
/// take a closure that writes their contents; inside an object every
/// value follows a [`key`](Self::key).
///
/// ```
/// use raco_driver::json::Writer;
///
/// let mut out = String::new();
/// Writer::compact(&mut out).object(|w| {
///     w.key("op").str("ping");
///     w.key("ids").array(|w| {
///         w.uint(1);
///         w.int(-2);
///     });
/// });
/// assert_eq!(out, r#"{"op":"ping","ids":[1,-2]}"#);
/// ```
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut String,
    /// Spaces per nesting level; `None` writes compact JSON.
    indent: Option<usize>,
    /// Containers open around the next value.
    level: usize,
    /// The innermost open container already holds a value.
    has_items: bool,
    /// A key was just written, so its value takes no separator.
    after_key: bool,
}

impl<'a> Writer<'a> {
    /// A writer of compact single-line JSON.
    pub fn compact(out: &'a mut String) -> Self {
        Self::with_indent(out, None)
    }

    /// A writer of JSON indented by two spaces per level.
    pub fn pretty(out: &'a mut String) -> Self {
        Self::with_indent(out, Some(2))
    }

    fn with_indent(out: &'a mut String, indent: Option<usize>) -> Self {
        Writer {
            out,
            indent,
            level: 0,
            has_items: false,
            after_key: false,
        }
    }

    /// Writes an object whose fields `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) {
        self.container('{', '}', body);
    }

    /// Writes an array whose items `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) {
        self.container('[', ']', body);
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        debug_assert!(
            self.level > 0 && !self.after_key,
            "a key needs an open object"
        );
        self.separate();
        write_escaped(self.out, key);
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
        self.after_key = true;
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.begin_value();
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, value: bool) {
        self.begin_value();
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Writes a signed integer.
    pub fn int(&mut self, value: i64) {
        self.begin_value();
        if value < 0 {
            self.out.push('-');
        }
        push_decimal(self.out, value.unsigned_abs());
    }

    /// Writes an unsigned integer.
    pub fn uint(&mut self, value: u64) {
        self.begin_value();
        push_decimal(self.out, value);
    }

    /// Writes a float; non-finite values write `null` per RFC 8259.
    pub fn num(&mut self, value: f64) {
        self.begin_value();
        if value.is_finite() {
            let _ = write!(self.out, "{value}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes `thousandths / 1000` with exactly three fraction digits
    /// (`12.345`, `0.070`). Integer formatting: a float render costs
    /// several times as much.
    pub fn thousandths(&mut self, thousandths: u64) {
        self.begin_value();
        push_decimal(self.out, thousandths / 1000);
        let fraction = thousandths % 1000;
        self.out.push('.');
        for digit in [fraction / 100, fraction / 10 % 10, fraction % 10] {
            self.out.push(char::from(b'0' + digit as u8));
        }
    }

    /// Writes an escaped string.
    pub fn str(&mut self, value: &str) {
        self.begin_value();
        write_escaped(self.out, value);
    }

    /// Writes a value tree (a parsed value forwarded into a document).
    pub fn value(&mut self, value: &Json) {
        match value {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Int(i) => self.int(*i),
            Json::UInt(u) => self.uint(*u),
            Json::Num(n) => self.num(*n),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => self.array(|w| items.iter().for_each(|item| w.value(item))),
            Json::Obj(fields) => self.object(|w| {
                for (key, value) in fields {
                    w.key(key).value(value);
                }
            }),
        }
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) {
        self.begin_value();
        self.out.push(open);
        self.level += 1;
        self.has_items = false;
        body(self);
        debug_assert!(!self.after_key, "a key without a value");
        self.level -= 1;
        if self.has_items {
            self.newline();
        }
        self.out.push(close);
        // The container is itself a value of the one around it.
        self.has_items = true;
    }

    /// Separates the next value from the one before it: nothing after
    /// a key or at the top level, a comma (after the first item) and
    /// the indentation inside a container.
    fn begin_value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.level > 0 {
            self.separate();
        }
    }

    fn separate(&mut self) {
        if self.has_items {
            self.out.push(',');
        }
        self.has_items = true;
        self.newline();
    }

    fn newline(&mut self) {
        if let Some(width) = self.indent {
            self.out.push('\n');
            self.out
                .extend(std::iter::repeat_n(' ', width * self.level));
        }
    }
}

/// Recursion guard: JSON this deep is hostile, not a report.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
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

    /// Consumes `literal` (e.g. `true`) or fails without advancing.
    fn literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{literal}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(format!("unexpected character `{}`", c as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.pos += 1; // {
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_whitespace();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            self.skip_whitespace();
            if self.peek() != Some(b':') {
                return Err(self.error("expected `:` after key"));
            }
            self.pos += 1;
            self.skip_whitespace();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped runs in one shot; JSON strings are UTF-8
            // already, so only `"`, `\` and control bytes break a run.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| {
                    // Parser input is &str, so runs are always valid UTF-8;
                    // defensive for future byte-level callers.
                    self.error("invalid UTF-8 in string")
                })?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonParseError> {
        let c = self.peek().ok_or_else(|| self.error("truncated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.hex4()?;
                if (0xD800..0xDC00).contains(&unit) {
                    // High surrogate: a low surrogate must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        if self.peek() != Some(b'u') {
                            return Err(self.error("expected low surrogate"));
                        }
                        self.pos += 1;
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"))?
                    } else {
                        return Err(self.error("unpaired high surrogate"));
                    }
                } else {
                    char::from_u32(unit).ok_or_else(|| self.error("invalid \\u escape"))?
                }
            }
            other => {
                return Err(self.error(format!("invalid escape `\\{}`", other as char)));
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let digits = end
            .map(|e| &self.bytes[self.pos..e])
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        // Exactly four hex digits — from_str_radix alone would also
        // accept a `+` sign, which the JSON grammar forbids.
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.error("invalid \\u escape"));
        }
        let text = std::str::from_utf8(digits).expect("hex digits are ASCII");
        let unit = u32::from_str_radix(text, 16).expect("four hex digits fit in u32");
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII slice");
        // str::parse re-validates most of the grammar (lone `-`,
        // misplaced signs, empty exponents) but is laxer than JSON on
        // leading zeros (`007`, `01.5`), so check those here.
        let unsigned = text.strip_prefix('-').unwrap_or(text);
        if unsigned.starts_with('0') && unsigned.as_bytes().get(1).is_some_and(u8::is_ascii_digit) {
            self.pos = start;
            return Err(self.error(format!("invalid number `{text}` (leading zero)")));
        }
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => {
                self.pos = start;
                Err(self.error(format!("invalid number `{text}`")))
            }
        }
    }
}

/// Appends `value` in decimal: the digits into a stack buffer, then one
/// copy (a report holds dozens of integers, and `write!` goes through
/// the formatting machinery for each).
fn push_decimal(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Copy unescaped runs in one shot. Every byte that needs an escape
    // is ASCII, so the run boundaries are character boundaries.
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
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
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `value` indented by two spaces.
    fn pretty(value: &Json) -> String {
        let mut out = String::new();
        Writer::pretty(&mut out).value(value);
        out
    }

    #[test]
    fn scalars_render_per_spec() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(
            Json::UInt(18_446_744_073_709_551_615).render(),
            "18446744073709551615"
        );
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::str("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::Str("\u{1}".into()).render(), r#""\u0001""#);
    }

    #[test]
    fn writer_streams_what_the_tree_renders() {
        let tree = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![])),
            (
                "b".into(),
                Json::Arr(vec![Json::Obj(vec![]), Json::Int(i64::MIN), Json::Null]),
            ),
            ("c\n".into(), Json::Obj(vec![("d".into(), Json::Num(0.25))])),
        ]);
        let stream = |w: &mut Writer<'_>| {
            w.object(|w| {
                w.key("a").array(|_| {});
                w.key("b").array(|w| {
                    w.object(|_| {});
                    w.int(i64::MIN);
                    w.null();
                });
                w.key("c\n").object(|w| w.key("d").num(0.25));
            })
        };
        let (mut compact, mut indented) = (String::new(), String::new());
        stream(&mut Writer::compact(&mut compact));
        stream(&mut Writer::pretty(&mut indented));
        assert_eq!(compact, tree.render());
        assert_eq!(indented, pretty(&tree));
        assert_eq!(
            compact,
            r#"{"a":[],"b":[{},-9223372036854775808,null],"c\n":{"d":0.25}}"#
        );
    }

    #[test]
    fn thousandths_keep_three_fraction_digits() {
        for (value, text) in [
            (0, "0.000"),
            (70, "0.070"),
            (12_345, "12.345"),
            (1_000, "1.000"),
        ] {
            let mut out = String::new();
            Writer::compact(&mut out).thousandths(value);
            assert_eq!(out, text);
        }
    }

    #[test]
    fn containers_preserve_order() {
        let value = Json::Obj(vec![
            ("zeta".into(), Json::Int(1)),
            ("alpha".into(), Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        assert_eq!(value.render(), r#"{"zeta":1,"alpha":[1,2]}"#);
    }

    #[test]
    fn parse_round_trips_rendered_values() {
        let value = Json::Obj(vec![
            ("op".into(), Json::str("compile")),
            ("n".into(), Json::Int(-3)),
            ("big".into(), Json::UInt(u64::MAX)),
            ("f".into(), Json::Num(1.5)),
            (
                "flags".into(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
            ("text".into(), Json::str("a\"b\\c\nd\u{1}é")),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&value.render()).unwrap(), value);
        assert_eq!(Json::parse(&pretty(&value)).unwrap(), value);
    }

    #[test]
    fn parse_handles_escapes_and_surrogates() {
        assert_eq!(
            Json::parse(r#""A\n\t\/é😀""#).unwrap(),
            Json::str("A\n\t/é😀")
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
        assert!(Json::parse(r#""\q""#).is_err(), "unknown escape");
        assert!(Json::parse("\"raw\ncontrol\"").is_err());
    }

    #[test]
    fn parse_classifies_numbers() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(Json::parse("2.5e2").unwrap(), Json::Num(250.0));
        assert!(Json::parse("1e999").is_err(), "overflows to infinity");
        assert!(Json::parse("-").is_err());
        assert!(Json::parse("1.2.3").is_err());
        // JSON forbids leading zeros; std's parsers don't.
        assert!(Json::parse("007").is_err());
        assert!(Json::parse("01.5").is_err());
        assert!(Json::parse("-01").is_err());
        assert_eq!(Json::parse("0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("-0.5").unwrap(), Json::Num(-0.5));
        // …and signed \u escapes (from_str_radix would take them).
        assert!(Json::parse(r#""\u+041""#).is_err());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "   ",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1 2]",
            "tru",
            "nullx",
            "{}{}",
            "{\"a\":}",
            "{1: 2}",
            "\"open",
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(!err.to_string().is_empty());
            assert!(err.offset <= bad.len());
        }
    }

    #[test]
    fn parse_enforces_the_depth_limit() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors_extract_scalars() {
        let value =
            Json::parse(r#"{"s":"x","b":true,"u":7,"i":-7,"f":16.0,"dup":1,"dup":2}"#).unwrap();
        assert_eq!(value.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(value.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(value.get("u").and_then(Json::as_u64), Some(7));
        assert_eq!(value.get("i").and_then(Json::as_i64), Some(-7));
        assert_eq!(value.get("i").and_then(Json::as_u64), None);
        assert_eq!(value.get("f").and_then(Json::as_u64), Some(16));
        // Type-boundary floats must be rejected, not saturated:
        // `u64::MAX as f64` rounds up to 2^64 (same for i64 and 2^63).
        assert_eq!(Json::Num(u64::MAX as f64).as_u64(), None);
        assert_eq!(Json::Num(i64::MAX as f64).as_i64(), None);
        assert_eq!(Json::Num(i64::MIN as f64).as_i64(), Some(i64::MIN));
        assert_eq!(Json::Num(2f64.powi(53)).as_u64(), Some(1 << 53));
        assert_eq!(
            value.get("dup").and_then(Json::as_u64),
            Some(1),
            "first wins"
        );
        assert_eq!(value.get("missing"), None);
        assert_eq!(Json::Null.get("s"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn pretty_rendering_is_indented_and_reparsable_by_eye() {
        let value = Json::Obj(vec![
            ("empty_obj".into(), Json::Obj(vec![])),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("nested".into(), Json::Arr(vec![Json::Bool(false)])),
        ]);
        let text = pretty(&value);
        assert!(text.contains("\"empty_obj\": {}"));
        assert!(text.contains("  \"nested\": [\n    false\n  ]"));
        assert!(text.starts_with("{\n  \"empty_obj\"") && text.ends_with("\n}"));
    }
}
