//! Hand-rolled JSON: a tiny object writer and a tiny parser.
//!
//! The workspace is dependency-free, so its JSONL surfaces — the CLI's
//! report lines, the multi-process wire protocol (`amulet_core::proto`)
//! and the structured event rows — are built on this module instead of a
//! serialisation crate. The writer ([`JsonObj`]) emits one object per line;
//! [`EventLog`] is the one writer of event rows; the parser
//! ([`parse_json`]) reads one value back into a [`JsonValue`] tree.
//!
//! Two deliberate properties:
//!
//! - **`u64` exactness.** Non-negative integer literals parse into
//!   [`JsonValue::UInt`] without an `f64` round trip, so 64-bit digests and
//!   seeds survive serialise→parse bit-exactly. (External double-based JSON
//!   readers would round above 2⁵³ — which is why the protocol serialises
//!   digests as hex *strings*; the exact integers here are belt and braces
//!   for counters.)
//! - **No allocation tricks, no recursion bombs.** The parser is a plain
//!   recursive-descent scanner with a depth cap, meant for trusted
//!   single-line messages, not adversarial input.
//!
//! # Examples
//!
//! ```
//! use amulet_util::json::{parse_json, JsonObj, JsonValue};
//!
//! let line = JsonObj::new()
//!     .str("type", "fragment")
//!     .int("index", 3)
//!     .bool("cached", false)
//!     .finish();
//! let v = parse_json(&line).unwrap();
//! assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("fragment"));
//! assert_eq!(v.get("index").and_then(JsonValue::as_u64), Some(3));
//! ```

use std::fmt::Write as _;
use std::io::Write;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Minimal JSON object writer (strings, numbers, booleans, raw nested
/// values) — enough for report lines and wire messages without a
/// serialisation dependency.
#[derive(Debug)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// Starts an object.
    pub fn new() -> Self {
        JsonObj { buf: "{".into() }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push_str(&json_string(key));
        self.buf.push(':');
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push_str(&json_string(value));
        self
    }

    /// Adds a numeric field. Non-finite values serialise as `null`.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a pre-serialised JSON value verbatim.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push_str(value);
        self
    }

    /// Closes the object.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObj {
    fn default() -> Self {
        Self::new()
    }
}

/// Escapes a string into a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// The one structured JSONL event writer: the worker, listener, driver,
/// daemon and persistence rows on stderr, and `drive --events FILE`. Every
/// row is `event`, a dense monotonic `seq`, `t_s` (seconds since the log
/// opened), then the event's own fields — so consumers can detect
/// truncation and order rows even when `t_s` values collide.
///
/// # Examples
///
/// ```
/// use amulet_util::json::EventLog;
///
/// EventLog::new(None).emit("ignored", |o| o.int("n", 1)); // a no-op log
/// EventLog::stderr().emit("listening", |o| o.str("addr", "127.0.0.1:7711"));
/// ```
pub struct EventLog {
    // The counter lives under the same lock as the writer so seq order
    // and output order can never disagree across racing threads.
    out: Option<Mutex<(u64, Box<dyn Write + Send>)>>,
    start: Instant,
}

impl EventLog {
    /// A log writing to `out`, or a no-op log.
    pub fn new(out: Option<Box<dyn Write + Send>>) -> Self {
        EventLog {
            out: out.map(|w| Mutex::new((0, w))),
            start: Instant::now(),
        }
    }

    /// The process's stderr log — one `seq` across every thread of the
    /// process.
    pub fn stderr() -> &'static EventLog {
        static LOG: OnceLock<EventLog> = OnceLock::new();
        LOG.get_or_init(|| EventLog::new(Some(Box::new(std::io::stderr()))))
    }

    /// Writes one row (best-effort: logging never takes a campaign down).
    pub fn emit(&self, event: &str, fields: impl FnOnce(JsonObj) -> JsonObj) {
        let Some(out) = &self.out else { return };
        let mut guard = out
            .lock()
            .expect("no thread panics while holding the event log");
        let (seq, w) = &mut *guard;
        let mut line = fields(
            JsonObj::new()
                .str("event", event)
                .int("seq", *seq)
                .num("t_s", self.start.elapsed().as_secs_f64()),
        )
        .finish();
        line.push('\n');
        *seq += 1;
        // One write per row, so rows never interleave with other stderr
        // writers mid-line.
        let _ = w.write_all(line.as_bytes());
        let _ = w.flush();
    }
}

/// A parsed JSON value.
///
/// Non-negative integer literals (no fraction, no exponent, fits `u64`)
/// become [`JsonValue::UInt`]; every other number becomes
/// [`JsonValue::Num`]. Objects preserve key order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal, kept bit-exact.
    UInt(u64),
    /// Any other number (negative, fractional, exponent, or > `u64::MAX`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source key order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks a key up in an object (first occurrence), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact `u64` ([`JsonValue::UInt`] only — a fractional
    /// number is never silently truncated).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(n) => Some(*n as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON value from `s` (surrounding whitespace allowed, trailing
/// garbage rejected).
///
/// # Examples
///
/// ```
/// use amulet_util::json::{parse_json, JsonValue};
///
/// let v = parse_json(r#"{"tag":"batch","ids":[1,2],"ratio":0.5}"#).unwrap();
/// assert_eq!(v.get("ids").unwrap().as_arr().unwrap().len(), 2);
/// assert_eq!(v.get("ratio").and_then(JsonValue::as_f64), Some(0.5));
/// assert!(parse_json("{oops").is_err());
/// ```
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Nesting cap: wire messages are flat; anything deeper is malformed.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: accept, combine; a lone
                            // surrogate becomes U+FFFD (trusted input never
                            // produces one).
                            if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let c = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    out.push(char::from_u32(c).unwrap_or('\u{FFFD}'));
                                } else {
                                    out.push('\u{FFFD}');
                                }
                            } else {
                                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            }
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Copy the whole unescaped span in one go. Stopping on
                    // `"` / `\` is char-boundary safe: UTF-8 continuation
                    // bytes are ≥ 0x80, so neither delimiter occurs inside
                    // a multi-byte scalar; and the input arrived as &str,
                    // so the span is valid UTF-8.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let span = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8")?;
                    out.push_str(span);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|_| "bad \\u escape")?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let integral_end = self.pos;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // Exact path: a plain non-negative integer that fits u64.
        if integral_end == self.pos && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_builds() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        let obj = JsonObj::new()
            .str("name", "x")
            .int("n", 3)
            .bool("ok", true)
            .num("nan", f64::NAN)
            .raw("nested", "{}")
            .finish();
        assert_eq!(
            obj,
            "{\"name\":\"x\",\"n\":3,\"ok\":true,\"nan\":null,\"nested\":{}}"
        );
    }

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("42").unwrap(), JsonValue::UInt(42));
        assert_eq!(parse_json("-3").unwrap(), JsonValue::Num(-3.0));
        assert_eq!(parse_json("2.5e1").unwrap(), JsonValue::Num(25.0));
        let v = parse_json(r#"{"a":[1,{"b":"x"}],"c":null}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn u64_integers_are_exact() {
        for n in [0u64, 1 << 53, u64::MAX, 0xb6c4_145f_7239_bb7d] {
            let line = JsonObj::new().int("n", n).finish();
            let v = parse_json(&line).unwrap();
            assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(n), "{n}");
        }
        // A fractional number never silently truncates to u64.
        assert_eq!(parse_json("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in [
            "",
            "plain",
            "a\"b\\c\nd\te\r",
            "\u{1}\u{1f}",
            "µarch → trace",
        ] {
            let line = JsonObj::new().str("s", s).finish();
            let v = parse_json(&line).unwrap();
            assert_eq!(v.get("s").and_then(JsonValue::as_str), Some(s), "{s:?}");
        }
        // \u escapes, including a surrogate pair.
        let v = parse_json(r#""\u00b5\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("µ😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert!(parse_json(&deep).is_err(), "depth cap missing");
    }
}
